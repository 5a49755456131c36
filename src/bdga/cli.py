"""Command-line front door: run sessions, verify transcripts, run experiment
suites, and list platforms. Exit codes: 0 pass, 1 check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .errors import BdgaError, OracleContractError
from .experiments import EXPERIMENTS, run_experiment
from .platforms import PRESET_NAMES, make_platform, platform_from_descriptor, preset, \
    preset_summary
from .protocol import SessionConfig, run_session
from .serial import (
    dump_json,
    keys_to_obj,
    load_json,
    meta_block,
    transcript_from_obj,
    transcript_to_obj,
)
from .actions import GroupAction


def _parse_perm_list(text: str) -> list[list[int]]:
    """Permutations in one-line form, points separated by commas or spaces
    and permutations by semicolons; at least one."""
    gens = []
    for chunk in text.split(";"):
        tokens = chunk.replace(",", " ").split()
        if tokens:
            try:
                gens.append([int(v) for v in tokens])
            except ValueError:
                raise BdgaError(f"not a list of integer points: {chunk.strip()!r}") from None
    if not gens:
        raise BdgaError(f"no permutation given in {text!r}")
    return gens


def _resolve_platform(args) -> GroupAction:
    name = args.platform
    if name in PRESET_NAMES:
        return preset(name)
    if name == "bd_modp":
        if None in (args.p, args.g, args.q):
            raise BdgaError("bd_modp needs --p, --g and --q")
        return make_platform("bd_modp", p=args.p, g=args.g, q=args.q)
    if name in ("conjugation", "twisted_conjugacy", "double_coset"):
        if args.degree is None or args.base is None:
            raise BdgaError(f"{name} needs --degree and --base")
        params: dict = {"family": "perm", "degree": args.degree,
                        "base": _parse_perm_list(args.base)[0]}
        params["group"] = "full" if args.group in (None, "full") else _parse_perm_list(args.group)
        sub = "group" if args.subgroup in (None, "group") else _parse_perm_list(args.subgroup)
        if name == "double_coset":
            params["left"] = sub
            params["right"] = (
                "group" if args.right in (None, "group") else _parse_perm_list(args.right)
            )
        else:
            params["subgroup"] = sub
        return make_platform(name, **params)
    raise BdgaError(f"unknown platform {name!r}; presets: {', '.join(PRESET_NAMES)}")


def cmd_run(args) -> int:
    if args.n < 3:
        print("error: n must be >= 3", file=sys.stderr)
        return 2
    try:
        platform = _resolve_platform(args)
    except BdgaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_session(SessionConfig(platform, args.n, args.seed))
    first = result.keys[0]
    if any(k != first for k in result.keys):
        print("error: parties disagree on the session key", file=sys.stderr)
        return 1
    meta = meta_block(platform, args.seed)
    transcript_obj = transcript_to_obj(result.transcript)
    transcript_obj["meta"] = meta
    keys_obj = keys_to_obj(result.transcript.sid, first)
    keys_obj["meta"] = meta
    dump_json(transcript_obj, f"{args.out}.transcript.json")
    dump_json(keys_obj, f"{args.out}.keys.json")
    fingerprint = hashlib.sha256(first.payload).hexdigest()[:16]
    print(f"platform {platform.tag} n={args.n} seed={args.seed}")
    print(f"sid {result.transcript.sid}")
    print(f"key fingerprint {fingerprint}")
    return 0


def cmd_verify(args) -> int:
    try:
        tobj = load_json(args.transcript)
        transcript = transcript_from_obj(tobj)
        meta = tobj.get("meta") or {}
        if not isinstance(meta, dict):
            raise BdgaError("transcript meta is not an object")
        desc = meta.get("platform_descriptor")
        if desc is None:
            raise BdgaError("transcript carries no platform descriptor")
        platform = platform_from_descriptor(desc)
    except BdgaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def fail(reason: str) -> int:
        print(f"FAIL: {reason}")
        return 1

    n = transcript.n
    if n < 3:
        return fail("party count n < 3")
    if not (len(transcript.v) == len(transcript.w) == len(transcript.z) == n):
        return fail(f"message counts are not all {n}")
    target = platform.target
    for label, seq in (("v", transcript.v), ("w", transcript.w), ("Z", transcript.z)):
        for i, payload in enumerate(seq):
            if not target.contains_p(payload):
                return fail(f"{label}[{i + 1}] does not decode to a target element")
    if transcript.platform != platform.tag:
        return fail("platform tag mismatch")
    acc = target.identity_p
    for payload in transcript.z:
        acc = target.compose_p(acc, payload)
    if acc != target.identity_p:
        return fail("telescoping violated: broadcast values do not cancel")
    if tobj.get("sid") != transcript.sid:
        return fail("sid does not match the transcript bytes")
    if args.keys:
        try:
            kobj = load_json(args.keys)
        except BdgaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if kobj.get("sid") != transcript.sid:
            return fail("keys file sid does not match the transcript")
        try:
            target.element_from_hex(kobj["sk"])
        except (KeyError, TypeError, ValueError, BdgaError):
            return fail("keys file sk does not decode to a target element")
    print("ok: counts, element decodability, sid and telescoping all hold")
    return 0


def cmd_experiment(args) -> int:
    manifest: dict = {}
    if args.manifest:
        try:
            manifest = load_json(args.manifest)
        except BdgaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    name = args.experiment or manifest.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"error: unknown experiment {name!r}; choose from: {known}", file=sys.stderr)
        return 2
    platform = args.platform or manifest.get("platform")
    try:
        if platform is not None and platform not in PRESET_NAMES:
            raise BdgaError(f"experiment platforms are preset names: {', '.join(PRESET_NAMES)}")
        result = run_experiment(
            name,
            platform,
            s=args.s if args.s is not None else manifest.get("s"),
            n=args.n if args.n is not None else manifest.get("n"),
            trials=args.trials if args.trials is not None else manifest.get("trials"),
            seed=args.seed if args.seed is not None else manifest.get("seed", 0),
            tolerance=args.tolerance if args.tolerance is not None else manifest.get("tolerance"),
        )
    except (BdgaError, OracleContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        dump_json(result, args.out)
    verdict = "PASS" if result["pass"] else "FAIL"
    print(
        f"{name} on {result['manifest']['platform']}: statistic={result['statistic']:.6f} "
        f"tolerance={result['tolerance']:.6f} [{verdict}]"
    )
    return 0 if result["pass"] else 1


def cmd_platforms(args) -> int:
    rows = [preset_summary(name) for name in PRESET_NAMES]
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    header = f"{'name':<14}{'kind':<18}{'|G|':>7}{'|H|':>7}{'|H_g|':>7}  commutative"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['name']:<14}{row['kind']:<18}{row['target_order']:>7}"
            f"{row['acting_order']:>7}{row['base_stabilizer']:>7}  {row['commutative']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdga",
        description="group key exchange over finite group actions: sessions, "
        "transcript verification, and security experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one session and write transcript + keys files")
    run_p.add_argument("--platform", required=True,
                       help=f"preset ({', '.join(PRESET_NAMES)}), bd_modp, or a kind name")
    run_p.add_argument("--p", type=int, help="bd_modp prime modulus")
    run_p.add_argument("--g", type=int, help="bd_modp base point")
    run_p.add_argument("--q", type=int, help="bd_modp base-point order")
    run_p.add_argument("--degree", type=int, help="permutation degree for custom kinds")
    run_p.add_argument("--group", help="target generators, e.g. '2,1,3,4;2,3,4,1' (or 'full')")
    run_p.add_argument("--subgroup", help="acting/left generators (default: whole group)")
    run_p.add_argument("--right", help="right generators for double_coset")
    run_p.add_argument("--base", help="base point as a one-line permutation")
    run_p.add_argument("--n", type=int, required=True, help="party count (>= 3)")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="session", help="output file prefix")
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="check a transcript file's invariants")
    ver_p.add_argument("transcript")
    ver_p.add_argument("keys", nargs="?", help="optional keys file to cross-check")
    ver_p.set_defaults(func=cmd_verify)

    exp_p = sub.add_parser("experiment", help="run a named security experiment suite")
    exp_p.add_argument("--experiment", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    exp_p.add_argument("--manifest", help="JSON manifest supplying any of the flags")
    exp_p.add_argument("--platform", help="preset platform name")
    exp_p.add_argument("--s", type=int, help="hybrid block count (party count n = 3s+5)")
    exp_p.add_argument("--n", type=int, help="party count")
    exp_p.add_argument("--trials", type=int)
    exp_p.add_argument("--seed", type=int)
    exp_p.add_argument("--tolerance", type=float)
    exp_p.add_argument("--out", help="write the results JSON here")
    exp_p.set_defaults(func=cmd_experiment)

    plat_p = sub.add_parser("platforms", help="list the shipped platform presets")
    plat_p.add_argument("--json", action="store_true")
    plat_p.set_defaults(func=cmd_platforms)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BdgaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
