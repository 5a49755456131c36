"""Platforms the test modules build by name: the presets, and platforms too
large to tabulate, which run on payloads through the target group's
permutation, modular and generic (``compose_p``) kernels."""

from bdga.platforms import make_platform, preset

UNTABULABLE = {
    "s10_conj": ("conjugation", {"family": "perm", "degree": 10, "group": "full",
                                 "subgroup": "group", "base": [2, 3, 4, 5, 6, 7, 8, 9, 10, 1]}),
    "bd_modp_100043": ("bd_modp", {"p": 200087, "g": 4, "q": 100043}),
    "bd_modp_2039": ("bd_modp", {"p": 2039, "g": 4, "q": 1019}),
    "gl27_conj": ("conjugation", {"family": "mat2", "p": 7, "group": "full",
                                  "subgroup": "group", "base": [[1, 1], [0, 1]]}),
}


def platform_named(name):
    """A preset, or one of the UNTABULABLE platforms."""
    if name not in UNTABULABLE:
        return preset(name)
    kind, params = UNTABULABLE[name]
    pf = make_platform(kind, **params)
    assert not pf.tabulable
    return pf
