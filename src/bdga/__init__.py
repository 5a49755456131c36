"""Group key exchange over finite group actions.

A cycle of n parties derives one shared key from per-party secrets in an
acting group, using only the action on a public base point. The package
bundles the algebra (groups, actions, platform constructions), the protocol
state machine, a passive-adversary oracle harness, and a statistical
security lab, behind a deterministic seeded CLI.
"""

__version__ = "0.3.0"

# the name of the one element-kernel implementation, stamped into benchmark runs
KERNEL_BACKEND = "python"

from .actions import (
    ConjugationAction,
    DoubleCosetAction,
    ExponentAction,
    GroupAction,
    TwistedConjugacyAction,
    double_act,
)
from .groups import (
    ENUMERATION_CAP,
    FiniteGroup,
    GL2Group,
    GroupElement,
    SymmetricGroup,
    generated_mat2_group,
    generated_perm_group,
)
from .harness import AdvantageReport, OracleEnv, estimate_advantage
from .platforms import PRESET_NAMES, make_platform, platform_from_descriptor, preset
from .protocol import (
    SessionConfig,
    SessionRecord,
    Transcript,
    oracle_key,
    run_session,
    wrap,
)
from .security_lab import (
    DdhGaTuple,
    DistributionSample,
    sample_ddh_ga,
    sample_dist,
    sample_dist_prime,
    sample_fake,
    sample_fake_prime,
    sample_real,
    tv_distance,
)

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "ENUMERATION_CAP",
    "FiniteGroup",
    "GL2Group",
    "GroupElement",
    "SymmetricGroup",
    "generated_mat2_group",
    "generated_perm_group",
    "GroupAction",
    "ConjugationAction",
    "TwistedConjugacyAction",
    "DoubleCosetAction",
    "ExponentAction",
    "double_act",
    "make_platform",
    "platform_from_descriptor",
    "preset",
    "PRESET_NAMES",
    "SessionConfig",
    "SessionRecord",
    "Transcript",
    "run_session",
    "oracle_key",
    "wrap",
    "OracleEnv",
    "AdvantageReport",
    "estimate_advantage",
    "DdhGaTuple",
    "DistributionSample",
    "sample_ddh_ga",
    "sample_real",
    "sample_fake",
    "sample_fake_prime",
    "sample_dist",
    "sample_dist_prime",
    "tv_distance",
]
