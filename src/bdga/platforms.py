"""Platform construction: named presets and descriptor-driven builders.

A platform descriptor is a JSON-able dict {"kind": ..., "params": {...}}
from which the action can be rebuilt exactly (same tag, same behavior).
"""

from __future__ import annotations

import functools

from . import _kernels as kern
from .actions import (
    ConjugationAction,
    DoubleCosetAction,
    ExponentAction,
    GroupAction,
    TwistedConjugacyAction,
)
from .errors import PlatformValidationError
from .groups import (
    FiniteGroup,
    GL2Group,
    GroupElement,
    SymmetricGroup,
    extend_homomorphism,
    generated_mat2_group,
    generated_perm_group,
)

KINDS = ("bd_modp", "conjugation", "twisted_conjugacy", "double_coset")


def _build_target(params: dict) -> FiniteGroup:
    family = params.get("family")
    source = params.get("group", "full")
    tag = params.get("group_tag")
    if tag is not None and source == "full":
        raise PlatformValidationError("group_tag names a generated group only, not group='full'")
    if family == "perm":
        degree = params["degree"]
        if source == "full":
            return SymmetricGroup(degree)
        return generated_perm_group(degree, source, tag=tag)
    if family == "mat2":
        p = params["p"]
        if source == "full":
            return GL2Group(p)
        return generated_mat2_group(p, source, tag=tag)
    raise PlatformValidationError(f"unknown group family {family!r}")


def _build_subgroup(target: FiniteGroup, params: dict, key: str) -> FiniteGroup:
    source = params.get(key, "group")
    tag = params.get(f"{key}_tag")
    if tag is not None and source in ("group", "full"):
        raise PlatformValidationError(
            f"{key}_tag names a generated {key} group only, not {key}={source!r}")
    if source == "group":
        return target
    if source == "full":
        return _build_target({**params, "group": "full", "group_tag": None})
    return target.generated(source, tag)


def _base_element(target: FiniteGroup, params: dict) -> GroupElement:
    payload = target.encode(params["base"])
    if not target.contains_p(payload):
        raise PlatformValidationError("base point is not an element of the target group")
    return target.wrap(payload)


def _build_endo(target: FiniteGroup, subgroup: FiniteGroup, params: dict):
    endo = params.get("endo", "transpose_inverse")
    if endo == "transpose_inverse":
        if target.family[0] != "mat2":
            raise PlatformValidationError("transpose_inverse endomorphism needs a matrix group")
        p = target.p
        return (lambda a: kern.mat2_transpose_invert(a, p)), "transpose_inverse"
    # generator-image table, extended multiplicatively over the subgroup
    gens = [target.encode(g) for g in endo["gens"]]
    images = [target.encode(g) for g in endo["images"]]
    table = extend_homomorphism(
        gens, images, subgroup.compose_p, subgroup.identity_p, subgroup.identity_p
    )
    missing = [h for h in subgroup.elements_p() if h not in table]
    if missing:
        raise PlatformValidationError("endomorphism generators do not generate the subgroup")
    return table.__getitem__, "table"


def make_platform(kind: str, **params) -> GroupAction:
    """Build and validate one of the four platform constructions."""
    if kind == "bd_modp":
        action: GroupAction = ExponentAction(params["p"], params["g"], params["q"])
    elif kind == "conjugation":
        target = _build_target(params)
        sub = _build_subgroup(target, params, "subgroup")
        action = ConjugationAction(target, sub, _base_element(target, params),
                                   tag=params.get("tag"))
    elif kind == "twisted_conjugacy":
        target = _build_target(params)
        sub = _build_subgroup(target, params, "subgroup")
        endo, endo_name = _build_endo(target, sub, params)
        action = TwistedConjugacyAction(
            target, sub, _base_element(target, params), endo, endo_name, tag=params.get("tag")
        )
    elif kind == "double_coset":
        target = _build_target(params)
        left = _build_subgroup(target, params, "left")
        right = _build_subgroup(target, params, "right")
        action = DoubleCosetAction(target, left, right, _base_element(target, params),
                                   tag=params.get("tag"))
    else:
        raise PlatformValidationError(f"unknown platform kind {kind!r} (not in {KINDS})")
    action.validate()
    action.descriptor = {"kind": kind, "params": params}
    return action


def platform_from_descriptor(desc: dict) -> GroupAction:
    """Rebuild a platform from a descriptor read from outside the program;
    one that is not a dict, lacks its kind, params or a parameter, or gives
    a parameter of the wrong type raises PlatformValidationError."""
    if not (isinstance(desc, dict) and "kind" in desc and isinstance(desc.get("params"), dict)):
        raise PlatformValidationError("platform descriptor must be a dict with kind and params")
    try:
        return make_platform(desc["kind"], **desc["params"])
    except KeyError as exc:
        raise PlatformValidationError(f"platform descriptor lacks parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PlatformValidationError(f"platform descriptor has a bad parameter: {exc}") from exc


_PRESET_PARAMS: dict[str, dict] = {
    "bd23": {"kind": "bd_modp", "params": {"p": 23, "g": 2, "q": 11}},
    "s3_conj": {
        "kind": "conjugation",
        "params": {"family": "perm", "degree": 3, "group": "full", "subgroup": "group",
                   "base": [2, 1, 3], "tag": "s3_conj"},
    },
    "s4_conj": {
        "kind": "conjugation",
        "params": {"family": "perm", "degree": 4, "group": "full", "subgroup": "group",
                   "base": [2, 3, 4, 1], "tag": "s4_conj"},
    },
    "s5_conj": {
        "kind": "conjugation",
        "params": {"family": "perm", "degree": 5, "group": "full", "subgroup": "group",
                   "base": [2, 3, 4, 5, 1], "tag": "s5_conj"},
    },
    "gl25_conj": {
        "kind": "conjugation",
        "params": {"family": "mat2", "p": 5, "group": "full", "subgroup": "group",
                   "base": [1, 1, 0, 1], "tag": "gl25_conj"},
    },
    "gl25_twist": {
        "kind": "twisted_conjugacy",
        "params": {"family": "mat2", "p": 5, "group": "full", "subgroup": "group",
                   "base": [1, 1, 0, 1], "endo": "transpose_inverse", "tag": "gl25_twist"},
    },
    "s4_dcoset": {
        "kind": "double_coset",
        "params": {"family": "perm", "degree": 4, "group": "full", "left": "group",
                   "right": [[2, 3, 1, 4], [1, 3, 4, 2]], "right_tag": "a4",
                   "base": [2, 1, 3, 4], "tag": "s4_dcoset"},
    },
    # |G| = 24 with odd-exponent abelianization: the special linear group of
    # 2x2 determinant-one matrices mod 3, acting on itself from both sides.
    "sl23_dcoset": {
        "kind": "double_coset",
        "params": {"family": "mat2", "p": 3, "group": [[1, 1, 0, 1], [0, 2, 1, 0]],
                   "group_tag": "sl2_3", "left": "group", "right": "group",
                   "base": [1, 1, 0, 1], "tag": "sl23_dcoset"},
    },
    # prime-order cyclic target under left translation (right factor trivial):
    # the regime where key-conditional uniformity is exact
    "c23_dcoset": {
        "kind": "double_coset",
        "params": {"family": "perm", "degree": 23,
                   "group": [list(range(2, 24)) + [1]], "group_tag": "c23",
                   "left": "group", "right": [], "right_tag": "triv23",
                   "base": list(range(2, 24)) + [1], "tag": "c23_dcoset"},
    },
}

PRESET_NAMES = tuple(_PRESET_PARAMS)


@functools.cache
def preset(name: str) -> GroupAction:
    if name not in _PRESET_PARAMS:
        raise PlatformValidationError(
            f"unknown platform preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    desc = _PRESET_PARAMS[name]
    return make_platform(desc["kind"], **desc["params"])


def preset_summary(name: str) -> dict:
    pf = preset(name)
    return {
        "name": name,
        "tag": pf.tag,
        "kind": pf.descriptor["kind"],
        "target_order": pf.target.order,
        "acting_order": pf.acting.order,
        "base_stabilizer": len(pf.base_stabilizer_p()),
        "commutative": pf.commutative,
    }
