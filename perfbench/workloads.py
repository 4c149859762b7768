"""Workload definitions of the decaylab benchmark (plain data, no imports).

Each workload runs a list of catalog experiments at their default configs,
in one process, through ``decaylab.cli.main``.  The workload seed is written
into ``experiment.seed`` of every generated config.  Only
``commutation-suite`` reads that key; the other 14 experiments are
deterministic given their config, so their fits, inequality ratios and
sample rows are checked against ``reference.json`` at every seed.
"""

from __future__ import annotations

# The catalog's own experiment.seed; reference.json was recorded with it.
DEFAULT_SEED = 20260811

# Experiments whose reports depend on experiment.seed.  At any other seed
# only their verdict is checked.
SEEDED = frozenset({"commutation-suite"})

# Tolerance on every reference number: |value - ref| <= REL * |ref| + ABS.
# REL absorbs last-digit changes of the sample tables (a refined sup search, a
# separable datum evaluation) while staying far inside every experiment's
# own verdict tolerance (the tightest slope tolerance is 0.02).  ABS lets the
# rounding-level residuals and errors (1e-16 to 1e-13 at the default configs)
# move by rounding; it is below every sample value that is not rounding.
REFERENCE_REL_TOL = 1e-6
REFERENCE_ABS_TOL = 1e-12


# Every workload runs its experiments with ``--threads 1``.  A workload of
# ``conservation`` at two threads was dropped: on a 2-vCPU host shared with
# other tenants its pass time moved by 10% between runs and by 22% between
# two sets of ten runs (see README.md).
THREADS = 1

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "transport-sup": ("vlasov-decay", "transport-degenerate", "counterexample"),
    "spectral": (
        "schrodinger-decay",
        "schrodinger-ks",
        "schrodinger-xnorm",
        "lp-decay",
        "local-mass",
        "cube-translation",
        "airy-pointwise",
        "airy-local-energy",
        "airy-decay",
        "monomial-2k",
        "commutation-suite",
    ),
}
