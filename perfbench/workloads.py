"""Workload definitions and the correctness gate of the conelab benchmark.

A workload is a list of passes; a pass is a list of operations, and one
operation is one ``run_suite`` call at the CLI's default settings followed by
``report_json`` on its reports, which is what ``conelab verify --report``
does after start-up.  Every pass gets its own suite seed (and, for
``levelset-integration``, its own radius).

Seeds come first from a fixed pool whose residuals are recorded in
``reference.json`` (the pool includes the engine's default seed 20200923),
in an order shuffled by the workload seed; once a run has used the whole
pool it continues with fresh seeds drawn from the workload seed, which are
gated on verdicts alone.  Radii never repeat within a run: the integration
cache is process-global and a repeated radius is answered from it, which a
fresh ``conelab verify`` process never sees.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")

MANIFOLDS = ("t3-blair", "t3-unnormalized", "s3-round", "s5-round")
SWEEP = tuple((suite, m) for suite in ("cone-identities", "contact-axioms",
                                       "kcontact", "sasaki")
              for m in MANIFOLDS) + (("hypersasaki", "s3-round"),)
R_LO, R_HI = 0.5, 3.0

# the engine's default seed first; the rest are arbitrary but fixed
POOL = (20200923, 1, 987654321, 271828, 314159, 1618033, 424242, 8675309)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# A run measures at least min_passes passes, however short --seconds is, so
# that the medians of the two workloads with shorter passes rest on more than
# one pass (a sweep pass takes about 10 s and varies most from pass to pass).
WORKLOADS = {
    "weitzenboeck-t3blair": {
        "pairs": (("weitzenboeck", "t3-blair"),),
        "radius": False,
        "min_passes": 1,
    },
    "identity-sweep": {
        "pairs": SWEEP,
        "radius": False,
        "min_passes": 3,
    },
    "levelset-integration": {
        "pairs": (("integration", "t3-blair"), ("integration", "s3-round")),
        "radius": True,
        "min_passes": 2,
    },
}


@dataclass(frozen=True)
class Op:
    suite: str
    manifold: str
    seed: int
    radius: Optional[float] = None

    def config(self, suite_config):
        kwargs = {"radii": (self.radius,)} if self.radius is not None else {}
        return suite_config(manifold=self.manifold, suite=self.suite,
                            seed=self.seed, **kwargs)

    @property
    def key(self) -> str:
        return f"{self.suite}|{self.manifold}|{self.seed}|{self.radius!r}"


def setup_manifolds(workload: str) -> Tuple[str, ...]:
    return tuple(dict.fromkeys(m for _, m in WORKLOADS[workload]["pairs"]))


def pass_radius(seed: int) -> float:
    return random.Random(seed).uniform(R_LO, R_HI)


def passes(workload: str, seed: int):
    """Yield (pass seed, [Op, ...]) for ever, derived from the workload seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    order = list(POOL)
    rng.shuffle(order)
    seen_seeds, seen_radii = set(), set()
    k = 0
    while True:
        pass_seed = order[k] if k < len(order) else rng.getrandbits(32)
        k += 1
        radius = pass_radius(pass_seed) if spec["radius"] else None
        if pass_seed in seen_seeds or (radius is not None and radius in seen_radii):
            continue
        seen_seeds.add(pass_seed)
        seen_radii.add(radius)
        yield pass_seed, [Op(s, m, pass_seed, radius) for s, m in spec["pairs"]]


# -- correctness gate ---------------------------------------------------------

# Two residuals agree "within roundoff" when they differ by less than
# RTOL relative, or by less than ATOL_SHARE of the identity's tolerance: a
# residual that certifies an identity is itself roundoff, so only its scale
# against the tolerance is meaningful.
RTOL = 1e-9
ATOL_SHARE = 1e-3

# per-pass counts that must repeat exactly for a pass seed
EXACT_COUNTS = ("jets.mul.calls", "jets.mul.mults", "weitzenboeck.data.calls",
                "quadrature.nodes")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def summarise(reports):
    """[identity, verdict, samples, max, rms, tolerance] per report."""
    return [[r.identity, r.verdict, r.samples, r.max_residual, r.rms_residual,
             r.tolerance] for r in reports]


def check_op(op: Op, rows, reference) -> list:
    """Problems with one op's report rows; empty when the op is correct."""
    problems = []
    expected = reference["expected"][f"{op.suite}|{op.manifold}"]
    got = [[r[0], r[1]] for r in rows]
    if got != expected:
        problems.append(f"identities/verdicts {got} != expected {expected}")
    for ident, verdict, _, mx, rms, _ in rows:
        if verdict == "error":
            problems.append(f"{ident}: error verdict")
        if mx is None or rms is None or not (math.isfinite(mx) and math.isfinite(rms)):
            problems.append(f"{ident}: non-finite residual ({mx}, {rms})")
    ref_rows = reference["residuals"].get(op.key)
    if ref_rows is not None and not problems:
        for row, ref in zip(rows, ref_rows):
            ident, _, samples, mx, rms, tol = row
            if samples != ref[2] or tol != ref[5]:
                problems.append(f"{ident}: samples/tolerance {samples}/{tol} "
                                f"!= reference {ref[2]}/{ref[5]}")
            for label, val, want in (("max", mx, ref[3]), ("rms", rms, ref[4])):
                if abs(val - want) > max(RTOL * abs(want), ATOL_SHARE * tol):
                    problems.append(f"{ident}: {label} residual {val!r} != "
                                    f"reference {want!r}")
    return problems
