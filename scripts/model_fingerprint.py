"""Print one SHA-256 per compiled P1, P2 and follower model over a fixed
suite.

The suite is P1 and P2, each under the three pricing schemes ``dyn``,
``flat`` and ``avg``, on tiny seeds 0-39, desk seeds 0-4 (6x3x4) and base
seeds 0-2 (the default size): 288 models. With them come every
service's follower LP and explicit dual on each of those instances at
two fixed contexts, ``low`` (every EN placed, at its lowest grid price)
and ``alt-top`` (ENs 0, 2, ... placed, every price at the top of the
grid): 396 models, 684 in all. Each hash covers what HiGHS is handed and
how the model names it: the objective sense and cost vector, the CSC
matrix, the row and column bounds, the binary ids, and the variable and
constraint names. A change that claims to leave every model unchanged
prints the same lines as its parent:

    python3 scripts/model_fingerprint.py > after.txt
    python3 scripts/model_fingerprint.py /path/to/parent/src > before.txt
    diff before.txt after.txt

The optional argument is the ``src`` directory of the checkout to load
``edgemarket`` from; by default it is this repository's own ``src``. That
checkout's builders must take ``scheme=`` and return ``(model, ids)``.

``--by-family`` prints one hash per row family of each model instead,
the family being a row name's prefix before its first ``_`` (``hub1``,
``revdef``, ``cc3s``), plus one for the columns and the objective,
``(columns)``. A diff of two such outputs names the families a change
touched:

    python3 scripts/model_fingerprint.py --by-family > after.txt
"""

from __future__ import annotations

import hashlib
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

TINY_PRICES = (0.01, 0.03, 0.05)


def _instances(scenario):
    """(label, instance) of the suite, with the recipes of ``perfbench``
    and the test suite."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        yield f"tiny/{seed}", scenario.sample_instance(scenario.ScenarioConfig(
            seed=seed, num_aps=int(rng.integers(1, 4)),
            num_ens=int(rng.integers(1, 3)),
            num_services=int(rng.integers(1, 3)), price_levels=TINY_PRICES))
    for seed in range(5):
        yield f"desk/{seed}", scenario.sample_instance(scenario.ScenarioConfig(
            seed=seed, num_aps=6, num_ens=3, num_services=4))
    for seed in range(3):
        yield f"base/{seed}", scenario.sample_instance(
            scenario.ScenarioConfig(seed=seed))


def fingerprint(model) -> str:
    cm = model._compiled_form()
    digest = hashlib.sha256(model.obj_sense.encode())
    for a in (cm.cost, cm.A.indptr, cm.A.indices, cm.A.data, cm.row_lo,
              cm.row_hi, cm.col_lo, cm.col_hi, cm.binary):
        a = np.ascontiguousarray(a)
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    for names in ([v.name for v in model.variables],
                  [c.name for c in model.constraints]):
        digest.update("\n".join(names).encode() + b"\0")
    return digest.hexdigest()


def family_fingerprints(model) -> dict:
    """{row family: SHA-256 of its rows' names, senses, right-hand sides
    and coefficients}, plus ``(columns)`` for the column names, bounds,
    binaries and the objective."""
    digests = defaultdict(hashlib.sha256)
    for row in model.constraints:
        coeffs = sorted(row.coeffs.items())
        digests[row.name.split("_")[0]].update(
            f"{row.name} {row.sense} {float(row.rhs).hex()} ".encode()
            + " ".join(f"{vid}:{float(c).hex()}" for vid, c in coeffs).encode()
            + b"\n")
    columns = digests["(columns)"]
    columns.update(model.obj_sense.encode())
    for v in model.variables:
        columns.update(f"{v.name} {v.lb.hex()} {v.ub.hex()} {v.binary} "
                       f"{float(model.objective.get(v.vid, 0.0)).hex()}\n"
                       .encode())
    return {name: d.hexdigest() for name, d in sorted(digests.items())}


def main(argv) -> int:
    by_family = "--by-family" in argv
    argv = [a for a in argv if a != "--by-family"]
    here = Path(__file__).resolve().parents[1] / "src"
    src = Path(argv[1]) if len(argv) > 1 else here
    sys.path.insert(0, str(src))
    from edgemarket import follower, reform_dual, reform_kkt, scenario

    def show(name, model):
        if not by_family:
            print(f"{name} {fingerprint(model)}")
            return
        for family, digest in family_fingerprints(model).items():
            print(f"{name} {family} {digest}")

    for label, inst in _instances(scenario):
        for method, build in (("p1", reform_kkt.build_p1),
                              ("p2", reform_dual.build_p2)):
            for scheme in ("dyn", "flat", "avg"):
                model, _ = build(inst, scheme=scheme)
                show(f"{label}/{method}/{scheme}", model)
        N = inst.num_ens
        contexts = (("low", inst.price_grid[:, 0], np.ones(N, dtype=int)),
                    ("alt-top", inst.price_grid[:, -1], np.arange(N) % 2 == 0))
        for k in range(inst.num_services):
            for ctx_name, prices, placed in contexts:
                ctx = follower.FollowerContext(inst, k, prices, placed)
                for kind, build in (("lp", follower.build_follower_lp),
                                    ("dual", follower.build_follower_dual)):
                    model, _ = build(ctx)
                    show(f"{label}/follower{k}/{ctx_name}/{kind}", model)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
