"""Seeded problem files and command lists for the four benchmark workloads.

A workload is one list of `bernray` commands, a pass. `build(workload, seed)`
returns the same list, with byte-identical problem files, for the same seed.
bernray sees only the generated files.

How the seed is used, and why. The benchmark's spread is taken across seeds,
so a seed must not change how much work a pass does:

* Relabelling. Complementing coordinate i (p_i -> 1 - p_i, x_i -> 1 - x_i)
  or permuting coordinates maps a class onto an isomorphic one, with the
  same ray count and report size. Complementing alone also keeps the double
  description's work, because it only negates a constraint row. `enumerate`
  therefore uses fixed catalogue classes, and the seed complements them.
  Exact LPs follow Bland's rule, whose path depends on the labels, so
  LP-bound catalogue cases keep their labels; only `project`'s small m=3
  cases are relabelled.
* Fixed catalogue. Fresh m=6 direct-mode targets made one `solve` pass take
  4.2 s to 6.6 s, so `solve` draws its problems once from CATALOGUE_SEED and
  the seed only shuffles their order.
* Fresh draws. `sample` draws margins, targets and the sampler seed: draws,
  moments and CSV cost depend only on n and m.

Drawing rules:

* margins: p_i = a/d with d in {3, 4, 5, 6} and 1 <= a < d. Small
  denominators keep every LP entry and report field short;
* feasible pair-moment target: the pair moments of a random member. The
  member mixes three threshold couplings with integer weights 1..4. Each
  coupling splits the coordinates into two independent groups. Inside a
  group, X_i = [U < p_i] or X_i = [U > 1 - p_i] for one shared uniform U.
  Every mass is an exact small rational;
* infeasible pair-moment target: a sign vector s and t in {0, 1/10, 1/5}.
  Set mu_ij = L_ij + t (U_ij - L_ij) when s_i s_j = 1, and
  mu_ij = U_ij - t (U_ij - L_ij) otherwise, where
  [L_ij, U_ij] = [max(0, p_i + p_j - 1), min(p_i, p_j)]. Every pair is then
  attainable on its own. A draw is kept only when
  Var(sum s_i X_i) = sum p_i q_i + 2 sum s_i s_j (mu_ij - p_i p_j) < 0. That
  proves no member has these pair moments, so exit 2 is the right answer;
* correlation target (`project`): rho_ij is uniform inside its pair's
  closed-form range shrunk by 0.01 at each end, rounded to two decimals. The
  implied pair moment then lies in [0, 1]; moments outside it hit a known
  crash that the benchmark leaves out;
* sample: the sampler's 64-bit seed is drawn from the workload seed.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("enumerate", "solve", "project", "sample")

MARGIN_DENOMINATORS = (3, 4, 5, 6)

# enumerate: (command, margins), each class relabelled by a seeded complement
# pattern. Ray counts: 2712, 3764 and 1727 at m=5; 174 and 181 at m=4. rays
# and bounds never share a class, so an in-process cache of the rays cannot
# speed up bounds. m=5 commands are the majority, so cmd_p50_s is the m=5
# bounds command rather than a 50 ms one dominated by file writes.
ENUMERATE_CASES = (
    ("rays", ("1/2",) * 5),
    ("rays", ("1/2", "1/6", "1/6", "4/5", "1/4")),
    ("bounds", ("1/3",) * 5),
    ("rays", ("1/3", "1/4", "1/5", "1/6")),
    ("bounds", ("2/3", "1/4", "2/3", "2/5")),
)

# solve: (command, mode, m, expected exit, count). About a third of the
# commands end in exit 2 with a certificate. Ray mode stays at m=4: one m=5
# ray-mode fit took 5 s to 110 s (87 to 534 pivots) depending on the class.
SOLVE_PLAN = (
    ("fit", "direct", 6, 0, 5),
    ("minimize", "direct", 6, 0, 5),
    ("fit", "direct", 6, 2, 3),
    ("minimize", "direct", 6, 2, 3),
    ("fit", "rays", 4, 0, 2),
    ("fit", "rays", 4, 2, 2),
)

# project: (mode, margins, rho) at m=4, run with their catalogue labels. A
# relabelling keeps ray-mode Frank-Wolfe's iterations but changes the Bland
# path of the LP that first tests the target, and simplicial decomposition
# took 574 to 3142 iterations over relabellings of one m=4 target. The seed
# permutes and complements the m=3 cases only.
PROJECT_M4 = (
    ("rays", ("2/3", "1/4", "1/5", "4/5"), ("-0.78", "0.12", "0.04", "0.38", "-0.85", "-0.93")),
    ("direct", ("2/3", "1/4", "2/3", "2/5"), ("-0.65", "0.59", "0.50", "-0.05", "0.45", "-0.70")),
    ("direct", ("2/3", "1/4", "1/5", "4/5"), ("-0.78", "0.12", "0.04", "0.38", "-0.85", "-0.93")),
)
PROJECT_M3_CASES = 6  # drawn once from the catalogue seed, run in both modes

# sample: (m, n, write csv, mode). m=4 fits in direct mode so that the LP
# stays negligible next to the draws.
SAMPLE_PLAN = (
    (3, 1_000_000, True, "rays"),
    (4, 500_000, False, "direct"),
    (3, 200_000, False, "rays"),
    (4, 100_000, True, "direct"),
)

CATALOGUE_SEED = "bernray-perfbench-catalogue-v1"

# Traced runs append these m=2 commands to every workload. Together they
# enter every traced layer for a few milliseconds, so each per-layer metric
# is a measurement on every workload rather than a constant zero.
CANARIES = (
    ("bounds", {"m": 2, "p": ["1/3", "1/4"]}, ()),
    ("nearest", {"m": 2, "p": ["1/3", "1/4"], "rho": ["0.10"]}, ("--mode", "rays")),
    ("sample", {"m": 2, "p": ["1/3", "1/4"], "mu2": ["1/12"]}, ("--mode", "rays", "--n", "1000", "--seed", "1")),
)


def pairs(m: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(m), 2))


def pair_range(p, i: int, j: int) -> tuple[Fraction, Fraction]:
    return max(Fraction(0), p[i] + p[j] - 1), min(p[i], p[j])


def draw_margins(rng: random.Random, m: int) -> list[Fraction]:
    out = []
    for _ in range(m):
        d = rng.choice(MARGIN_DENOMINATORS)
        out.append(Fraction(rng.randint(1, d - 1), d))
    return out


def _coupling(rng: random.Random, p: list[Fraction]) -> dict[int, Fraction]:
    m = len(p)
    group = [rng.randint(0, 1) for _ in range(m)]
    flip = [rng.randint(0, 1) for _ in range(m)]
    joint = {0: Fraction(1)}
    for g in (0, 1):
        members = [i for i in range(m) if group[i] == g]
        if not members:
            continue
        cuts = sorted({Fraction(0), Fraction(1)} | {1 - p[i] if flip[i] else p[i] for i in members})
        part: dict[int, Fraction] = {}
        for lo, hi in zip(cuts, cuts[1:]):
            u = (lo + hi) / 2
            code = 0
            for i in members:
                if (u > 1 - p[i]) if flip[i] else (u < p[i]):
                    code |= 1 << i
            part[code] = part.get(code, 0) + hi - lo
        merged: dict[int, Fraction] = {}
        for a, va in joint.items():
            for b, vb in part.items():
                merged[a | b] = merged.get(a | b, 0) + va * vb
        joint = merged
    return joint


def random_member(rng: random.Random, p: list[Fraction]) -> list[Fraction]:
    """Density (canonical support order) of a random member of the class."""
    couplings = [_coupling(rng, p) for _ in range(3)]
    weights = [rng.randint(1, 4) for _ in couplings]
    total = sum(weights)
    f = [Fraction(0)] * (1 << len(p))
    for w, joint in zip(weights, couplings):
        for code, mass in joint.items():
            f[code] += Fraction(w, total) * mass
    return f


def pair_moments(f, m: int) -> list[Fraction]:
    out = []
    for i, j in pairs(m):
        mask = (1 << i) | (1 << j)
        out.append(sum((v for k, v in enumerate(f) if k & mask == mask), Fraction(0)))
    return out


def infeasible_mu2(rng: random.Random, p: list[Fraction]) -> list[Fraction]:
    """Pairwise attainable pair moments that violate Var(sum s_i X_i) >= 0."""
    m = len(p)
    for _ in range(10_000):
        s = [rng.choice((1, -1)) for _ in range(m)]
        t = Fraction(rng.randint(0, 2), 10)
        mu = []
        for i, j in pairs(m):
            lo, hi = pair_range(p, i, j)
            mu.append(lo + t * (hi - lo) if s[i] * s[j] == 1 else hi - t * (hi - lo))
        var = sum(v * (1 - v) for v in p) + 2 * sum(
            s[i] * s[j] * (v - p[i] * p[j]) for (i, j), v in zip(pairs(m), mu)
        )
        if var < 0:
            return mu
    raise RuntimeError(f"no infeasible target found for margins {p}")


def draw_rho(rng: random.Random, p: list[Fraction]) -> list[str]:
    out = []
    for i, j in pairs(len(p)):
        lo, hi = pair_range(p, i, j)
        scale = math.sqrt(p[i] * (1 - p[i]) * p[j] * (1 - p[j]))
        r_lo = float(lo - p[i] * p[j]) / scale + 0.01
        r_hi = float(hi - p[i] * p[j]) / scale - 0.01
        out.append(f"{rng.uniform(r_lo, r_hi):.2f}")
    return out


def relabel(p, rho, perm, mask: int):
    """New coordinate k is old coordinate perm[k], complemented when bit k of
    mask is set. Correlations change sign across a complemented coordinate."""
    m = len(p)
    new_p = [1 - Fraction(p[perm[k]]) if mask >> k & 1 else Fraction(p[perm[k]]) for k in range(m)]
    new_rho = None
    if rho is not None:
        old = dict(zip(pairs(m), rho))
        new_rho = []
        for k, l in pairs(m):
            a, b = sorted((perm[k], perm[l]))
            r = old[(a, b)]
            if (mask >> k ^ mask >> l) & 1 and Fraction(r) != 0:
                r = r[1:] if r.startswith("-") else "-" + r
            new_rho.append(r)
    return new_p, new_rho


def _text(values) -> list[str]:
    return [str(v) for v in values]


class _Commands(list):
    def add(self, command, spec, *args, expect=0, csv=False):
        self.append({
            "id": f"c{len(self):02d}",
            "command": command,
            "spec": spec,
            "args": list(args),
            "expect": expect,
            "csv": csv,
        })


def _enumerate(rng: random.Random) -> _Commands:
    cmds = _Commands()
    for command, p in ENUMERATE_CASES:
        m = len(p)
        new_p, _ = relabel(p, None, list(range(m)), rng.getrandbits(m))
        cmds.add(command, {"m": m, "p": _text(new_p)})
    return cmds


def _solve_catalogue() -> list[tuple]:
    """(command, spec, args, expect) for every solve problem, drawn once."""
    catalogue = random.Random(CATALOGUE_SEED + ":solve")
    out = []
    for command, mode, m, expect, count in SOLVE_PLAN:
        for _ in range(count):
            p = draw_margins(catalogue, m)
            mu = infeasible_mu2(catalogue, p) if expect else pair_moments(random_member(catalogue, p), m)
            args = () if command == "minimize" else ("--mode", mode)
            out.append((command, {"m": m, "p": _text(p), "mu2": _text(mu)}, args, expect))
    return out


def _solve(rng: random.Random) -> _Commands:
    problems = _solve_catalogue()
    rng.shuffle(problems)
    cmds = _Commands()
    for command, spec, args, expect in problems:
        cmds.add(command, spec, *args, expect=expect)
    return cmds


def _project_catalogue() -> list[tuple[str, tuple, tuple, bool]]:
    """(mode, margins, rho, relabel by seed) for every project case."""
    cases = [(mode, p, rho, False) for mode, p, rho in PROJECT_M4]
    catalogue = random.Random(CATALOGUE_SEED + ":project")
    for _ in range(PROJECT_M3_CASES):
        p = draw_margins(catalogue, 3)
        rho = draw_rho(catalogue, p)
        for mode in ("rays", "direct"):
            cases.append((mode, tuple(_text(p)), tuple(rho), True))
    return cases


def _project(rng: random.Random) -> _Commands:
    cmds = _Commands()
    for mode, p, rho, seeded in _project_catalogue():
        m = len(p)
        perm = list(range(m))
        mask = 0
        if seeded:
            rng.shuffle(perm)
            mask = rng.getrandbits(m)
        new_p, new_rho = relabel(p, list(rho), perm, mask)
        cmds.add("nearest", {"m": m, "p": _text(new_p), "rho": new_rho}, "--mode", mode)
    return cmds


def _sample(rng: random.Random) -> _Commands:
    cmds = _Commands()
    for m, n, csv, mode in SAMPLE_PLAN:
        p = draw_margins(rng, m)
        mu = pair_moments(random_member(rng, p), m)
        seed = rng.getrandbits(64)
        spec = {"m": m, "p": _text(p), "mu2": _text(mu)}
        cmds.add("sample", spec, "--mode", mode, "--n", str(n), "--seed", str(seed), csv=csv)
    return cmds


_BUILDERS = {"enumerate": _enumerate, "solve": _solve, "project": _project, "sample": _sample}


def build(workload: str, seed: int) -> list[dict]:
    """The command list of one pass of the workload for this seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return list(_BUILDERS[workload](random.Random(f"{workload}:{seed}")))


def canaries() -> list[dict]:
    return [
        {"id": f"k{k}", "command": command, "spec": spec, "args": list(args), "expect": 0, "csv": False}
        for k, (command, spec, args) in enumerate(CANARIES)
    ]


def spec_text(cmd: dict) -> str:
    return json.dumps(cmd["spec"], indent=1, sort_keys=True) + "\n"


def write_inputs(cmds: list[dict], directory: str) -> dict[str, str]:
    """Write each command's problem file; returns id -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for cmd in cmds:
        path = os.path.join(directory, f"{cmd['id']}.json")
        with open(path, "w") as handle:
            handle.write(spec_text(cmd))
        paths[cmd["id"]] = path
    return paths
