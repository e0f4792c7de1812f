"""Library calls that the benchmark times, one part per process.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/libcalls.py PART SEED

PART is one of ``oracle``, ``sections``, ``curves`` or ``pn4-slice``.
The part prints one JSON document with the values it computed, and
``run.py`` checks them by routes that do not share the code under
test.  Seeded parts build their inputs from SEED; the others ignore it.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from deltap import (ToricModel, ToricValuation,
                    basis_moment, builtin_model, compatible_basis,
                    random_admissible_curve, random_flag_filtration,
                    rounding_sandwich, section_filtration,
                    sup_over_bases_oracle, volume_curve_of)

# Sizes are fixed so that every seed does the same amount of work: the
# dimension of each filtration cycles through 1..5 instead of being drawn.
ORACLE_FILTRATIONS = 40
ORACLE_SAMPLES = 60
CURVES_PER_DIM = 40
SECTIONS = (("p2-anticanonical", 16, (1, 0)),
            ("p2-anticanonical", 16, (1, 2)),
            ("pn:3", 8, (1, 1, 0)),
            ("pn:3", 8, (-1, 2, 1)))
PN4_VALUATIONS = ((1, 0, 0, 0), (0, 0, 0, -1), (1, 1, 0, 0), (1, -1, 0, 0),
                  (1, 1, 1, 0), (1, 2, 0, 0), (2, -1, 1, 0))


def part_oracle(seed: int) -> list[dict]:
    """Criterion-07 route: best random basis, compatible basis and the
    rounding sandwich on seeded flag filtrations."""
    rng = random.Random(f"oracle:{seed}")
    out = []
    for i in range(ORACLE_FILTRATIONS):
        filt = random_flag_filtration(rng, 1 + i % 5, rng.randint(1, 4))
        oracle = sup_over_bases_oracle(filt, 2, ORACLE_SAMPLES,
                                       random.Random(f"oracle:{seed}:{i}"))
        chain = [rows for _, rows in filt.flag[1:]]
        basis = compatible_basis(chain, filt.d)
        sandwich = {}
        for p in (1, Fraction(3, 2), 3):
            upper, mid, lower = rounding_sandwich(filt, p)
            sandwich[str(p)] = [str(upper), str(mid), str(lower)] \
                if isinstance(p, int) else [float(upper), float(mid),
                                            float(lower)]
        out.append({"m": filt.m, "jumps": [str(a) for a in filt.jumps],
                    "oracle_p2": str(oracle),
                    "basis_moment": {str(p): str(basis_moment(filt, basis, p))
                                     for p in (1, 2)},
                    "sandwich": sandwich})
    return out


def part_sections(seed: int) -> list[dict]:
    """Level-m section filtrations of fixed toric valuations."""
    out = []
    for name, m, v in SECTIONS:
        model = builtin_model(name)
        filt = section_filtration(model, ToricValuation(model, v), m)
        out.append({"model": name, "m": m, "v": list(v), "d": filt.d,
                    "s_m_p": [str(filt.s_m_p(p)) for p in (1, 2, 3, 4)],
                    "t_m": str(filt.t_m())})
    return out


def part_curves(seed: int) -> list[dict]:
    """Exact and real moments of seeded random admissible curves."""
    out = []
    for n in (1, 2, 3):
        rng = random.Random(f"curves:{seed}:{n}")
        for _ in range(CURVES_PER_DIM):
            curve = random_admissible_curve(rng, n)
            out.append({"curve": curve.to_json_dict(),
                        "s_p": [str(curve.s_p(p)) for p in range(1, 7)],
                        "s_p_half_5_2": float(curve.s_p_half(Fraction(5, 2))),
                        "s_p_real_2_5": curve.s_p_real(2.5),
                        "k_stat_n_plus_2": curve.k_stat(n + 2)})
    return out


def part_pn4_slice(seed: int) -> list[dict]:
    """Volume curves of a fixed handful of pn:4-anticanonical valuations."""
    model = builtin_model("pn:4")
    model = ToricModel(model.anticanonical_polytope())
    out = []
    for v in PN4_VALUATIONS:
        curve = volume_curve_of(model, ToricValuation(model, v))
        out.append({"v": list(v), "curve": curve.to_json_dict(),
                    "s_p": [str(curve.s_p(p)) for p in (1, 2)]})
    return out


PARTS = {"oracle": part_oracle, "sections": part_sections,
         "curves": part_curves, "pn4-slice": part_pn4_slice}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in PARTS:
        sys.stderr.write(f"usage: libcalls.py {{{'|'.join(PARTS)}}} SEED\n")
        return 2
    doc = PARTS[argv[0]](int(argv[1]))
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
