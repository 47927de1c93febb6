"""The tolerance ledger: every tolerance once, and one rule per form of decision.

Each tolerance compares quantities free of units: relative widths and
residuals, gains relative to the quantity they change, or figures in the
wage-bundle numeraire. Three strict comparisons use no margin: ``y > x``
in ``synthesis._region_rows``, the test of ``synthesis._ratio_rows`` and
the disjoint brackets of ``verify._profit_fell``. A margin on ``y > x``
would refuse a region all but empty at its pivot as Infeasible, where a
sampler now refuses it as SamplingExhausted.
"""

# Stopping rule: the relative Collatz–Wielandt bracket width _left_perron ends at.
CW_TOL = 1e-14
# Arithmetic guards, far above what a sound solve leaves: the price and the
# value residual, each relative to its largest entry. Either merged value
# would loosen or tighten one of the two checks.
RESIDUAL_TOL = 1e-9
VALUE_RESIDUAL_TOL = 1e-10
# Strict inequalities: how far beyond its bound a quantity must lie.
STRICT_MARGIN = 1e-12
# Equality: bundle values and exploitation rates this close are the same.
MATCH_TOL = 1e-9
# Ten times tighter for a sampled bundle's value, so that the bundle still
# matches after the verifier solves the values again.
ON_PLANE_TOL = MATCH_TOL / 10
# The precision of the worked example's printed reference figures.
REPLAY_TOL = 1e-5
# Oracle only, both to go once strict inequalities are decided from
# enclosures: the bisection's width and the decay test's cutoff on norms.
ORACLE_BISECT_TOL = 1e-10
ORACLE_DECAY_TOL = 1e-12


def strictly_above(a, b):  # each rule takes numbers or arrays
    return a > b + STRICT_MARGIN


def strictly_below(a, b):
    return a < b - STRICT_MARGIN


def strict_gain(gain, scale):
    """A gain that counts relative to the quantity ``scale`` it changes."""
    return gain > STRICT_MARGIN * scale


def matches(a, b, tol=MATCH_TOL):
    return abs(a - b) <= tol
