"""Seeded workload generator: config files for `valuesets run`.

Each workload fixes a family shape, so |A|, the candidate count and the
oracle budgets are known in closed form.  The seed only draws coefficients
inside that shape, and the draw keeps the number of nonzero terms fixed, so
the work per run depends on the seed as little as the shape allows.  The CLI
receives nothing but the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Family:
    """One generated config plus the closed-form sizes the checker relies on."""

    label: str
    text: str
    q: int
    d: int
    m: int
    members: int  # q^(d-1-m)


def _nonzero(rng, p):
    return rng.randrange(1, p)


def _linear_expr(coeffs, names, const):
    terms = [f"{c}*{v}" for c, v in zip(coeffs, names)]
    return " + ".join(terms + [str(const)])


def _config(comment, p, kind, d, m, forms, run_lines, s=1):
    field = [f"p = {p}"] + ([f"s = {s}"] if s != 1 else [])
    lines = [f"# {comment}", "[field]", *field, "", "[family]", f"kind = {kind}",
             f"d = {d}", f"m = {m}", "forms = " + "; ".join(forms), "", "[run]",
             f"r_max = {d}", *run_lines]
    return "\n".join(lines) + "\n"


def _family(label, comment, p, kind, d, m, forms, run_lines, s=1):
    q = p**s
    text = _config(comment, p, kind, d, m, forms, run_lines, s)
    return Family(label, text, q, d, m, q ** (d - 1 - m))


def _sieve_lin13(rng):
    # Two affine forms with disjoint supports, A5, A3 and A4, A2, so rank 2
    # holds for every draw; coefficients and constants are nonzero, so each
    # candidate costs the same number of term evaluations for every seed.
    p = 13
    forms = [
        _linear_expr([_nonzero(rng, p), _nonzero(rng, p)], names, _nonzero(rng, p))
        for names in (("A5", "A3"), ("A4", "A2"))
    ]
    return [_family("sieve-lin13", "rank-2 linear sieve over F_13", p, "linear", 6, 2,
                    forms, ["oracle_budget = 0", "workers = 1"])]


_CUBICS = ("A4^3", "A4^2*A3", "A4*A3^2", "A3^3")
_QUADRATICS = ("A4^2", "A4*A3", "A3^2")
_LINEARS = ("A4", "A3")


def _kernel_ext16(rng):
    # Integer literals land in the prime subfield F_2, so a seeded cubic over
    # F_16 is a choice of monomials; one per degree keeps the term count fixed.
    g = [rng.choice(_CUBICS), rng.choice(_QUADRATICS), rng.choice(_LINEARS), "1"]
    form = "A2 + " + " + ".join(g)
    return [_family("kernel-ext16", "cubic graph family over F_16", 2, "custom", 5, 1,
                    [form], ["oracle_budget = 0", "workers = 1"], s=4)]


def _verify_small(rng):
    lin = _linear_expr([_nonzero(rng, 11), _nonzero(rng, 11)], ("A3", "A2"),
                       _nonzero(rng, 11))
    quad = [f"{_nonzero(rng, 7)}*{mono}"
            for mono in ("A3^2", "A3*A1", "A1^2", "A3", "A1")]
    quad_form = "A2 + " + " + ".join(quad) + f" + {_nonzero(rng, 7)}"
    run = ["diag_extensions = 1,2", "workers = 1"]
    return [
        _family("linear-q11", "linear q11 d4, all six oracles run", 11, "linear", 4, 1,
                [lin], run),
        _family("quadratic-q7", "quadratic q7 d4, k=2 regularity over F_49", 7, "custom",
                4, 1, [quad_form], run),
    ]


def _par2_lin13(rng):
    # A pinned top coefficient A4 = c puts every member on one side of the
    # midpoint of the candidate index space unless c = 6, so two equal index
    # slices give one worker all the work; c = 6 is left out so that the
    # imbalance is the same for every seed.
    c = rng.choice([x for x in range(1, 13) if x != 6])
    return [_family("par2-lin13", "pinned-coefficient linear family in 2 workers", 13,
                    "linear", 5, 1, [f"A4 - {c}"], ["oracle_budget = 0", "workers = 2"])]


def _verify_par2(rng):
    return _verify_small(rng) + _par2_lin13(rng)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sieve-lin13": _sieve_lin13,
    "kernel-ext16": _kernel_ext16,
    "verify-par2": _verify_par2,
}


def generate(name: str, seed: int) -> list:
    """The families of workload `name` for `seed`; same seed, same bytes."""
    rng = random.Random(f"{name}:{seed}")
    families = WORKLOADS[name](rng)
    return [
        replace(f, text=f"# workload {name}, seed {seed}\n{f.text}") for f in families
    ]
