"""The four benchmark workloads.

Each workload builds its platforms in ``setup`` and runs one whole round of
a fixed list of operations per ``round`` call, returning one ``Op`` per
operation. Inputs derive from the run seed and the round number only. Every
output is checked, outside the timed calls, against ``refarith`` or against
a property the method must have; a wrong output is recorded on the
``Checker`` and makes the run report ``correct: false``.

Package functions are called through their module attributes so that a
tracer installed on the modules sees the calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from random import Random

from bdga import experiments, harness, platforms, protocol, security_lab, serial

import speed
from refarith import RefPlatform, perm_mul

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "cli_child.py")


@dataclass
class Op:
    """One operation of a round. ``attempt``: a checked operation, counted
    in attempted (and failed); ``rate``: its time and units enter
    throughput_per_s and op_p50_ms."""

    label: str
    seconds: float
    units: int = 0
    failed: bool = False
    rate: bool = True
    attempt: bool = True


class Checker:
    def __init__(self):
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.errors.append(what)
        return ok


def derive(seed: int, *labels) -> int:
    """Input seed for one operation; the benchmark's own derivation."""
    text = "/".join(map(str, ("perfbench", seed, *labels)))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


class Workload:
    name = ""
    unit = ""  # what throughput_per_s counts

    def __init__(self, seed: int, checker: Checker, tracer=None):
        self.seed = seed
        self.checker = checker
        self.tracer = tracer
        self.slowness: list[float] | None = None  # set to a list to scale times
        self.ticks = True  # sample the host's speed during long calls too

    def timed(self, fn, *args, **kwargs):
        """fn's result and its seconds; when the run scales times, at the
        reference machine's speed (speed.py)."""
        if self.slowness is None:
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - t0
        out, seconds, factors = speed.timed_at_reference(lambda: fn(*args, **kwargs),
                                                         ticks=self.ticks)
        self.slowness += factors
        return out, seconds

    def region(self, name: str):
        return self.tracer.region(name) if self.tracer is not None else nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


# -- tv_hybrid --------------------------------------------------------------------

TV_SUITES = ("real_vs_distprime_dh", "fakeprime_vs_dist_dh", "fake_vs_dist_rand")
TV_BUCKETS = 64
# tv_distance documents a noise floor of 0.57 * sqrt(buckets / trials) for
# identical samplers; the statistic's spread around it is about 9.4% of the
# floor, so 1.5 floors is more than five standard deviations.
TV_NOISE_MARGIN = 1.5
# Fixed draws (not derived from the run seed) for the closing-link check of
# the challenge-embedding samplers: see TvHybrid._closing_link.
CLOSING_LINK_SEEDS = range(8)


class TvHybrid(Workload):
    """The three TV suites on s4_conj at s = 1 (n = 8), which between them
    draw all five samplers and both challenge-tuple kinds."""

    name = "tv_hybrid"
    unit = "draws/s (both sides of tv_distance)"

    def __init__(self, seed, checker, tracer=None, trials: int = 500):
        super().__init__(seed, checker, tracer)
        self.trials = trials

    def setup(self):
        self.pf = platforms.preset("s4_conj")
        self.ref = RefPlatform(self.pf.descriptor)

    def round(self, r):
        ops: list[Op] = []
        for name in TV_SUITES:
            suite_seed = derive(self.seed, "tv", r, name)
            with self.region(f"tv.{name}"):
                res, dt = self.timed(getattr(experiments, name), self.pf, 1, self.trials,
                                     suite_seed)
            ops.append(Op(name, dt, units=2 * self.trials))
            self._check_suite(name, res, suite_seed)
        for sampler in ("sample_dist_prime", "sample_dist"):
            ops.append(Op(f"closing_link.{sampler}", 0.0, rate=False,
                          failed=not self._closing_link(sampler)))
        return ops

    def _check_suite(self, name, res, suite_seed):
        floor = 0.57 * math.sqrt(TV_BUCKETS / self.trials)
        self.checker.check(res["statistic"] <= TV_NOISE_MARGIN * floor,
                           f"{name}: statistic {res['statistic']:.4f} above "
                           f"{TV_NOISE_MARGIN} x noise floor {floor:.4f}")
        self.checker.check(res["manifest"]["trials"] == self.trials, f"{name}: trial count")
        for t in sorted({0, self.trials // 2, self.trials - 1}):
            a, b = self._redraw(name, suite_seed, t)
            self._check_draw(name, a)
            self._check_draw(name, b)

    def _redraw(self, name, suite_seed, t):
        """The draws trial t of the suite consumed (tv_distance seeds trial t
        of side a or b with derive_seed(seed, side, t))."""
        pf, s, n = self.pf, 1, 8
        ra = Random(harness.derive_seed(suite_seed, "a", t))
        rb = Random(harness.derive_seed(suite_seed, "b", t))
        lab = security_lab
        if name == "real_vs_distprime_dh":
            return (lab.sample_real(pf, n, ra),
                    lab.sample_dist_prime(pf, s, lab.sample_ddh_ga(pf, rb, "dh_shaped"), rb))
        if name == "fakeprime_vs_dist_dh":
            return (lab.sample_fake_prime(pf, s, ra),
                    lab.sample_dist(pf, s, lab.sample_ddh_ga(pf, rb, "dh_shaped"), rb))
        return (lab.sample_fake(pf, n, ra),
                lab.sample_dist(pf, s, lab.sample_ddh_ga(pf, rb, "random_excluded"), rb))

    def _closing_link(self, sampler) -> bool:
        """Whether shaped draws of a challenge-embedding sampler, at fixed
        seeds, have every link equal to apply(s_{k+1} . s_k, g), the closing
        link k = 0 (apply(s_1 . s_n, g)) included, as sample_dist_prime
        documents and as a shaped tuple reproducing fake_prime requires."""
        ref = self.ref
        for seed in CLOSING_LINK_SEEDS:
            rng = Random(seed)
            tup = security_lab.sample_ddh_ga(self.pf, rng, "dh_shaped")
            d = getattr(security_lab, sampler)(self.pf, 1, tup, rng)
            inter = d.internals
            want = ref.links(inter["s"])
            if any(inter["links"][k] != want[k] for k in range(d.transcript.n)
                   if k not in inter["random_links"]):
                return False
        return True

    def _check_draw(self, suite, d):
        ref, chk = self.ref, self.checker
        tr, inter = d.transcript, d.internals
        n = tr.n
        links, cs = inter["links"], inter["c"]
        secrets = inter["s"] if "witness" in inter else inter["h"]
        where = f"{suite} draw"
        chk.check(all(tr.v[i] == ref.act(secrets[i], ref.base) for i in range(n)),
                  f"{where}: v != apply(secret, g)")
        chk.check(all(tr.w[i] == ref.act(cs[i - 1], links[i]) for i in range(n)),
                  f"{where}: w != apply(c, link)")
        chk.check(all(tr.z[i] == ref.mul(ref.inv(links[i]), links[(i + 1) % n])
                      for i in range(n)), f"{where}: Z != link^-1 * next link")
        chk.check(d.key.payload == ref.product(links), f"{where}: key != product of links")
        # links not drawn uniformly are apply(s_{k+1} . s_k, g), for the
        # challenge-embedding samplers when the tuple is shaped
        if inter.get("kind", "dh_shaped") == "dh_shaped":
            want = ref.links(secrets)
            fixed = [k for k in range(n) if k not in inter["random_links"]]
            if "witness" in inter and links[0] != want[0]:
                # The known closing-link fault, apply(s_n . s_1, g), on
                # non-abelian platforms: counted by the fixed-seed
                # closing_link operations, since how many seeded draws it
                # hits depends on the seed. Any other value is wrong.
                chk.check(links[0] == ref.act(ref.hmul(secrets[-1], secrets[0]), ref.base),
                          f"{where}: closing link is neither apply(s_1 . s_n, g) "
                          f"nor apply(s_n . s_1, g)")
                fixed.remove(0)
            chk.check(all(links[k] == want[k] for k in fixed),
                      f"{where}: link != apply(s_k+1 . s_k, g)")
        if "witness" in inter:
            x, y, z, r = inter["witness"]
            yx, xy = ref.hmul(y, x), ref.hmul(x, y)
            if inter["kind"] == "dh_shaped":
                chk.check(z == yx and r == xy, f"{where}: shaped tuple is not (x, y, yx, xy)")
            else:
                near = {ref.act(yx, ref.base), ref.act(xy, ref.base)}
                chk.check(ref.act(z, ref.base) not in near and ref.act(r, ref.base) not in near,
                          f"{where}: excluded tuple hits a stabilizer coset of yx or xy")


# -- sessions ---------------------------------------------------------------------

SESSION_PRESETS = ("s4_conj", "gl25_twist", "sl23_dcoset", "bd23")
# too large to tabulate: 10! elements, and 100042 units mod 100043
LARGE_PLATFORMS = {
    "s10_conj": {"kind": "conjugation",
                 "params": {"family": "perm", "degree": 10, "group": "full",
                            "subgroup": "group", "base": [2, 3, 4, 5, 6, 7, 8, 9, 10, 1]}},
    "bd_modp_200087": {"kind": "bd_modp", "params": {"p": 200087, "g": 4, "q": 100043}},
}
SESSION_NS = (3, 8, 16, 32)


class Sessions(Workload):
    """run_session at every n in SESSION_NS on four presets and two platforms
    built from descriptors."""

    name = "sessions"
    unit = "sessions/s"

    def setup(self):
        self.platforms = [(name, platforms.preset(name)) for name in SESSION_PRESETS]
        self.platforms += [(name, platforms.make_platform(d["kind"], **d["params"]))
                           for name, d in LARGE_PLATFORMS.items()]
        self.refs = {name: RefPlatform(pf.descriptor) for name, pf in self.platforms}

    def round(self, r):
        ops = []
        for name, pf in self.platforms:
            for n in SESSION_NS:
                config = protocol.SessionConfig(pf, n, derive(self.seed, "session", r, name, n))
                with self.region(f"sessions.n{n}"):
                    res, dt = self.timed(protocol.run_session, config)
                ops.append(Op(f"{name}.n{n}", dt, units=1))
                self._check(name, pf, res)
        return ops

    def _check(self, name, pf, res):
        ref, chk = self.refs[name], self.checker
        secrets = res.internals.secrets
        key = ref.key(secrets)
        where = f"session {name} n={len(secrets)}"
        chk.check(all(k.payload == key for k in res.keys),
                  f"{where}: a party key differs from the product of links")
        chk.check(protocol.oracle_key(pf, secrets).payload == key,
                  f"{where}: oracle_key differs from the product of links")
        tr = res.transcript
        chk.check(ref.product(tr.z) == ref.identity, f"{where}: broadcasts do not telescope")
        with self.region("serial.roundtrip"):
            obj = serial.transcript_to_obj(tr)
            back = serial.transcript_from_obj(json.loads(json.dumps(obj)))
        chk.check(back == tr and back.sid == tr.sid == obj["sid"],
                  f"{where}: transcript changed in the serial round trip")


# -- exact_lab --------------------------------------------------------------------

# fake_key_independence scores its null distinguisher against a 3/sqrt(trials)
# bound, which 0.27% of seeds exceed by chance; the suites therefore run at a
# fixed seed, and the seeded part of the workload is the direct conditionals.
FKI_SEED = 5
EXACT_SCALES = {
    # conditionals on c23 / sl23, suite trials, null trials, ddh trials
    "workload": (40, 24, 4, 10_000, 400),
    "layer_pass": (2, 1, 1, 300, 100),
}
EXACT_BLOCKS = 4


class ExactLab(Workload):
    """Exact key conditionals on c23_dcoset and sl23_dcoset at n = 4, the two
    fake_key_independence suites and ddh_toy_advantage on bd23 at n = 3."""

    name = "exact_lab"
    unit = "operations/s (conditionals and suite calls)"

    def __init__(self, seed, checker, tracer=None, scale: str = "workload"):
        super().__init__(seed, checker, tracer)
        self.n_c23, self.n_sl23, self.suite_trials, self.null_trials, self.ddh_trials = \
            EXACT_SCALES[scale]

    def setup(self):
        self.pfs = {name: platforms.preset(name) for name in ("c23_dcoset", "sl23_dcoset", "bd23")}
        self.refs, self.enums = {}, {}
        for name in ("c23_dcoset", "sl23_dcoset"):
            ref = RefPlatform(self.pfs[name].descriptor)
            self.refs[name] = ref
            self.enums[name] = (ref.target_elements(), ref.acting_elements())

    def round(self, r):
        # conditionals in four blocks around the three suites, so that their
        # repeats spread over the round
        ops = []
        suites = (lambda: self._fki("c23_dcoset"), lambda: self._fki("sl23_dcoset"),
                  lambda: self._ddh(r))
        for block in range(EXACT_BLOCKS):
            for name, count in (("c23_dcoset", self.n_c23), ("sl23_dcoset", self.n_sl23)):
                for i in range(block * count // EXACT_BLOCKS, (block + 1) * count // EXACT_BLOCKS):
                    ops.append(self._conditional(name, r, i))
            if block < len(suites):
                ops.append(suites[block]())
        return ops

    def _conditional(self, name, r, i):
        pf = self.pfs[name]
        sample = security_lab.sample_fake(pf, 4, Random(derive(self.seed, "cond", r, name, i)))
        with self.region(f"exact.conditional.{name}"):
            weights, dt = self.timed(security_lab.exact_key_conditional, pf, sample)
        op = Op(f"conditional.{name}", dt, units=1)
        self._check_conditional(name, sample, weights)
        return op

    def _fki(self, name):
        with self.region(f"exact.suite.fake_key_independence.{name}"):
            res, dt = self.timed(experiments.fake_key_independence, self.pfs[name], 4,
                                 self.suite_trials, FKI_SEED, null_trials=self.null_trials)
        op = Op(f"fake_key_independence.{name}", dt, units=1)
        self._check_fki(name, res)
        return op

    def _ddh(self, r):
        with self.region("exact.suite.ddh_toy_advantage"):
            res, dt = self.timed(experiments.ddh_toy_advantage, self.pfs["bd23"], 3,
                                 self.ddh_trials, derive(self.seed, "ddh", r))
        op = Op("ddh_toy_advantage", dt, units=1)
        self.checker.check(res["statistic"] >= res["tolerance"] and res["pass"],
                           f"ddh_toy_advantage: advantage {res['statistic']} below threshold")
        return op

    def _check_conditional(self, name, sample, weights):
        """Recompute the conditional by enumeration with the reference
        arithmetic: links = (t, t a_1, ..., t a_{n-1}) for every t, each t
        weighted by the number of pair keys reproducing the w's."""
        ref, chk = self.refs[name], self.checker
        targets, acting = self.enums[name]
        tr = sample.transcript
        prefix = [ref.identity]
        for z in tr.z[:-1]:
            prefix.append(ref.mul(prefix[-1], z))
        hist: Counter = Counter()
        per_t = set()
        for t in targets:
            links = [ref.mul(t, a) for a in prefix]
            weight = 1
            for link, w in zip(links, tr.w):
                weight *= sum(1 for c in acting if ref.act(c, link) == w)
            per_t.add(weight)
            if weight:
                hist[ref.product(links)] += weight
        chk.check(dict(hist) == weights, f"conditional {name}: weights differ from enumeration")
        order = len(targets)
        if name == "c23_dcoset":
            # regular action: one pair key per link, and t -> t^4 a is a bijection
            chk.check(per_t == {1} and sum(weights.values()) == order
                      and set(weights.values()) == {1} and len(weights) == order,
                      f"conditional {name}: not exactly uniform with total |G|")
        else:
            # each link is reached by |G| = 24 pair keys; the key map collapses
            chk.check(per_t == {order ** 4}, f"conditional {name}: a t does not weigh 24^4")
            chk.check(len(weights) < order or len(set(weights.values())) > 1,
                      f"conditional {name}: uniform, contrary to the order-24 argument")

    def _check_fki(self, name, res):
        chk = self.checker
        bound = 3.0 / self.null_trials ** 0.5
        chk.check(res["null_advantage"] <= bound,
                  f"fake_key_independence {name}: null advantage "
                  f"{res['null_advantage']} > {bound}")
        if name == "c23_dcoset":
            chk.check(res["statistic"] == 0.0 and res["uniform_transcripts"] == self.suite_trials
                      and res["pass"], f"fake_key_independence {name}: not exactly uniform")
        else:
            # the documented expected-red criterion: never uniform at |G| = 24
            chk.check(res["statistic"] > 0 and res["uniform_transcripts"] == 0
                      and not res["pass"], f"fake_key_independence {name}: unexpectedly uniform")


# -- cli_cold ---------------------------------------------------------------------

CLI_PRESETS = ("s4_conj", "gl25_twist", "bd23", "s4_dcoset")
TARGET_ORDERS = {"s4_conj": 24, "gl25_twist": 480, "bd23": 11, "s4_dcoset": 24,
                 "sl23_dcoset": 24, "c23_dcoset": 23}
# inputs that break the documented exit codes (2: usage or configuration
# error) with a traceback and exit 1; kept as counted failures
KNOWN_FAULTS = ("verify_descriptor_missing_params", "verify_descriptor_not_a_dict",
                "experiment_manifest_zero_trials")
CHILD_TIMEOUT_S = 170


class CliCold(Workload):
    """One fresh `bdga` process at a time, from this checkout's sources."""

    name = "cli_cold"
    unit = "calls/s"

    def __init__(self, seed, checker, tracer=None, workdir: str | None = None,
                 full: bool = True, trace_children: bool = False):
        super().__init__(seed, checker, tracer)
        self.workdir = workdir or os.path.join(HERE, "out", f"cli-{os.getpid()}")
        self.full = full
        self.trace_children = trace_children
        self.ticks = False  # its calls wait on a child process
        self.presets = CLI_PRESETS if full else CLI_PRESETS[:3]

    def setup(self):
        """Fixtures for the known-fault calls, from a fixed-seed s4_conj run."""
        os.makedirs(self.workdir, exist_ok=True)
        pf = platforms.preset("s4_conj")
        res = protocol.run_session(protocol.SessionConfig(pf, 4, 0))
        base = serial.transcript_to_obj(res.transcript)
        for fname, desc in (("bad_params.json", {"kind": "bd_modp", "params": {}}),
                            ("bad_desc.json", ["bd_modp"])):
            obj = dict(base, meta={"tool_version": "0", "seed": 0, "platform_descriptor": desc})
            self._write(fname, obj)
        self._write("zero_trials.json", {"experiment": "ddh_toy_advantage", "platform": "bd23",
                                         "n": 3, "trials": 0, "seed": 1})

    def _write(self, fname, obj):
        with open(os.path.join(self.workdir, fname), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def _read(self, fname) -> bytes:
        with open(os.path.join(self.workdir, fname), "rb") as fh:
            return fh.read()

    def _call(self, label, *args, command=None):
        cmd = command or [sys.executable, CHILD]
        trace_file = None
        if self.trace_children and command is None:
            trace_file = os.path.join(self.workdir, f"spans-{label}.json.gz")
            cmd = cmd + ["--trace-out", trace_file]
        with self.region(f"cli.{label}") as span:
            proc, dt = self.timed(subprocess.run, cmd + list(args), cwd=self.workdir,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if trace_file is not None and os.path.exists(trace_file):
            from tracer import load
            self.tracer.merge(load(trace_file), span)
            os.remove(trace_file)
        return proc, dt

    def round(self, r):
        ops, chk = [], self.checker

        def op(label, proc, dt, expect, failed_ok=False):
            ok = proc.returncode == expect and "Traceback" not in proc.stderr
            if not failed_ok:
                chk.check(ok, f"cli {label}: exit {proc.returncode}, expected {expect}: "
                              f"{proc.stderr.strip()[-200:]}")
            ops.append(Op(label, dt, units=1, failed=not ok))
            return ok

        if not self.full:
            src = os.path.join(ROOT, "src")
            proc, dt = self._call("import", "-c", f"import sys; sys.path.insert(0, {src!r}); "
                                  "import bdga.cli", command=[sys.executable])
            op("import", proc, dt, 0)
        else:
            proc, dt = self._call("platforms", "platforms")
            if op("platforms", proc, dt, 0):
                rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[2:]}
                chk.check(all(name in rows and int(rows[name][2]) == order
                              for name, order in TARGET_ORDERS.items()),
                          "cli platforms: a preset is missing or has the wrong |G|")
        for name in self.presets:
            n = 3 + derive(self.seed, "cli-n", r, name) % 6
            seed = derive(self.seed, "cli-seed", r, name) % 1_000_000
            run_args = ("run", "--platform", name, "--n", str(n), "--seed", str(seed))
            proc, dt = self._call(f"run.{name}", *run_args, "--out", name)
            if op(f"run.{name}", proc, dt, 0):
                tobj = json.loads(self._read(f"{name}.transcript.json"))
                ref = RefPlatform(tobj["meta"]["platform_descriptor"])
                chk.check(ref.product(bytes.fromhex(z) for z in tobj["Z"]) == ref.identity,
                          f"cli run.{name}: broadcasts do not telescope")
            proc, dt = self._call(f"verify.{name}", "verify", f"{name}.transcript.json",
                                  f"{name}.keys.json")
            if op(f"verify.{name}", proc, dt, 0):
                chk.check(proc.stdout.startswith("ok:"), f"cli verify.{name}: no ok line")
            if name == "s4_conj":
                proc, dt = self._call("run.repeat", *run_args, "--out", "repeat")
                if op("run.repeat", proc, dt, 0):
                    chk.check(all(self._read(f"repeat.{kind}.json") == self._read(
                        f"{name}.{kind}.json") for kind in ("transcript", "keys")),
                        "cli run: same seed wrote different bytes")
                tobj = json.loads(self._read(f"{name}.transcript.json"))
                transposition = bytes((2, 1, 3, 4))
                tobj["Z"][0] = perm_mul(bytes.fromhex(tobj["Z"][0]), transposition).hex()
                self._write("tampered.json", tobj)
                proc, dt = self._call("verify.tampered", "verify", "tampered.json")
                op("verify.tampered", proc, dt, 1)
        proc, dt = self._call("experiment", "experiment", "--experiment", "ddh_toy_advantage",
                              "--platform", "bd23", "--n", "3", "--trials", "200", "--seed",
                              str(derive(self.seed, "cli-exp", r) % 1_000_000),
                              "--out", "exp.json")
        if op("experiment", proc, dt, 0):
            rep = json.loads(self._read("exp.json"))
            chk.check(rep["pass"] and rep["statistic"] >= rep["tolerance"],
                      "cli experiment: toy attack below its threshold")
        for label, args in zip(KNOWN_FAULTS, (("verify", "bad_params.json"),
                                              ("verify", "bad_desc.json"),
                                              ("experiment", "--manifest", "zero_trials.json"))):
            proc, dt = self._call(label, *args)
            op(label, proc, dt, 2, failed_ok=True)
        return ops

    def artifacts(self) -> dict[str, bytes]:
        names = [f"{p}.{kind}.json" for p in self.presets for kind in ("transcript", "keys")]
        return {name: self._read(name) for name in names + ["exp.json"]}


WORKLOADS = {cls.name: cls for cls in (TvHybrid, Sessions, ExactLab, CliCold)}
