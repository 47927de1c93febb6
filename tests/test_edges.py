"""Edge-of-domain families: the chain at each edge of what it accepts.

One table, one entry per family: the smallest economy, a deep sparse one,
sparse irreducible economies through synthesis, sampling and the verifier,
a nearly decomposable economy under three bundles at once, and the
synthesis knobs next to both ends of their range. Each family runs in well
under 0.2 s.
"""

import numpy as np
import pytest

from okishio_lab import (
    Decomposable,
    Infeasible,
    NotInB,
    TechChange,
    Technology,
    Verdict,
    WageBundle,
    admissibility,
    analyze_change,
    augmented_inputs,
    classify,
    run_scenario,
    run_scenarios,
    sample_constant_exploitation,
    sample_rising_exploitation,
    save_economy,
    synthesize_culs_change,
    uniform_profit_rate,
    worked_example,
)
from okishio_lab.cli import main
from okishio_lab.linear_economy import PLAIN_ROWS


def _assert_same_reports(batched, singles):
    for report, single in zip(batched, singles, strict=True):
        for name, value in vars(single).items():
            other = getattr(report, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(other, value), name
            elif name == "flags":
                assert vars(other) == vars(value)
            else:
                assert other == value, name


def one_sector(tmp_path):
    tech, bundle = Technology(np.array([[0.5]]), np.array([1.0])), WageBundle(np.array([0.25]))
    eq = uniform_profit_rate(tech, bundle)
    # rho = 0.5 + 0.25 * 1 exactly, and the bundle costs one at p = 4.
    assert (eq.spectral_radius, eq.prices.tolist(), eq.iterations) == (0.75, [4.0], 0)
    assert eq.profit_rate == 1.0 / 0.75 - 1.0
    # Price over value is one over the bundle value in every sector, so
    # there is no headroom to synthesize from.
    with pytest.raises(NotInB):
        synthesize_culs_change(tech, bundle, eq, 0)
    # At p = 4 unit cost falls from 3 to 2.7 and rho from 0.75 to 0.675.
    change = TechChange(0, np.array([0.55]), 0.5)
    report = run_scenario(tech, bundle, change, bundle)
    assert report.verdict is Verdict.OKISHIO_RISE
    assert report.post_profit == pytest.approx(1.0 / 0.675 - 1.0, rel=1e-15)
    bundles = tuple(WageBundle(np.array([q])) for q in (0.3, 0.25, 0.2))
    assert 1 + len(bundles) > PLAIN_ROWS  # the masked loop, at n = 1
    _assert_same_reports(run_scenarios(tech, bundle, change, bundles),
                         [run_scenario(tech, bundle, change, new) for new in bundles])


def cycle_of_200(tmp_path):
    n = 200
    cycle = np.roll(np.eye(n), 1, axis=1) * 0.5
    tech = Technology(cycle, np.ones(n))
    # v_j = 0.5 v_(j-1) + 1 around the cycle: every value is 2.
    np.testing.assert_allclose(tech.values, 2.0, rtol=1e-14)
    # Every column of A + b L sums to 0.75, so prices are equal from the start.
    bundle = WageBundle(np.full(n, 0.25 / n))
    eq = uniform_profit_rate(tech, bundle)
    assert eq.spectral_radius == pytest.approx(0.75, rel=1e-14)
    np.testing.assert_allclose(eq.prices, 4.0, rtol=1e-13)
    cycle[n - 1, 0] = 0.0
    with pytest.raises(Decomposable):
        Technology(cycle, np.ones(n))


def _sparse_economy(rng, n):
    """A random cycle plus entries at density 0.1 to 0.3, radius 0.6, with an
    admissible bundle worth half a day."""
    while True:
        order = rng.permutation(n)
        pattern = rng.random((n, n)) < rng.uniform(0.1, 0.3)
        pattern[order, np.roll(order, -1)] = True
        inputs = pattern * rng.uniform(0.01, 0.3, (n, n))
        inputs *= 0.6 / np.abs(np.linalg.eigvals(inputs)).max()
        tech = Technology(inputs, rng.uniform(0.05, 0.5, n))
        direction = rng.uniform(0.1, 1.0, n)
        bundle = WageBundle(direction * (0.5 / (tech.values @ direction)))
        prices = uniform_profit_rate(tech, bundle).prices
        if admissibility(prices, tech.values, 0.5).admissible:
            return tech, bundle


def sparse_irreducible_chain(tmp_path):
    rng = np.random.default_rng(2301)
    predicted = [Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT, Verdict.OKISHIO_RISE,
                 Verdict.PROFIT_FELL_EXPLOITATION_ROSE]
    for n in (3, 6, 12, 20):
        tech, bundle = _sparse_economy(rng, n)
        eq = uniform_profit_rate(tech, bundle)
        change = synthesize_culs_change(tech, bundle, eq, int(rng.integers(n))).change
        region = analyze_change(tech, bundle, eq, change).region
        bundles = (sample_constant_exploitation(region, n), bundle,
                   sample_rising_exploitation(region, n + 1))
        reports = run_scenarios(tech, bundle, change, bundles)
        assert [report.verdict for report in reports] == predicted


def two_block_at_0_999(tmp_path):
    # Block 1 carries the wage goods; block 2 is scaled to 0.999 of the
    # wage block's radius, coupled at 1e-9 both ways.
    rng, size = np.random.default_rng(2302), 5
    inputs = np.full((2 * size, 2 * size), 1e-9)
    a11, a22 = rng.uniform(0.1, 1.0, (2, size, size))
    inputs[:size, :size] = a11 * (0.4 / np.abs(np.linalg.eigvals(a11)).max())
    labor = rng.uniform(0.05, 0.5, 2 * size)
    goods = np.concatenate([rng.uniform(0.1, 1.0, size), np.zeros(size)])
    goods *= 0.5 / (Technology(inputs, labor).values @ goods)
    wage_block = inputs[:size, :size] + np.outer(goods[:size], labor[:size])
    rho = np.abs(np.linalg.eigvals(wage_block)).max()
    inputs[size:, size:] = a22 * (0.999 * rho / np.abs(np.linalg.eigvals(a22)).max())
    tech, bundle = Technology(inputs, labor), WageBundle(goods)
    moduli = np.sort(np.abs(np.linalg.eigvals(augmented_inputs(tech, bundle))))
    assert moduli[-2] / moduli[-1] == pytest.approx(0.999, abs=5e-4)
    change = TechChange(0, tech.input_column(0) * 1.01, 0.9 * tech.labor[0])
    bundles = tuple(WageBundle(goods * scale) for scale in (1.01, 1.0, 0.99))
    _assert_same_reports(run_scenarios(tech, bundle, change, bundles),
                         [run_scenario(tech, bundle, change, new) for new in bundles])


# (epsilon_frac, labor_frac) near both ends, with the bound a refusal names,
# or None where the change still clears the classifier's strict margins.
KNOB_ENDS = [
    ((1e-13, 0.5), "smallest relative input rise"),
    ((1e-13, 1e-13), "smallest relative input rise"),
    ((1e-13, 1 - 1e-9), "smallest relative input rise"),
    ((1 - 1e-9, 1 - 1e-9), "relative unit-cost drop"),
    ((0.5, 1e-13), None),
    ((1 - 1e-9, 0.5), None),
    ((0.5, 1 - 1e-9), None),
]


def knobs_at_their_ends(tmp_path):
    tech, bundle = worked_example.economy()
    eq = uniform_profit_rate(tech, bundle)
    path = tmp_path / "economy.json"
    save_economy(path, tech, bundle)
    for (epsilon_frac, labor_frac), bound in KNOB_ENDS:
        argv = ["synth-tc", "--economy", str(path), "--sector", "3",
                "--epsilon-frac", repr(epsilon_frac), "--labor-frac", repr(labor_frac)]
        if bound is None:
            change = synthesize_culs_change(tech, bundle, eq, 2, epsilon_frac, labor_frac).change
            classification = classify(tech, eq, change)
            assert classification.viable and classification.culs
            assert main(argv) == 0
        else:
            with pytest.raises(Infeasible, match=bound):
                synthesize_culs_change(tech, bundle, eq, 2, epsilon_frac, labor_frac)
            assert main(argv) == 2


FAMILIES = [one_sector, cycle_of_200, sparse_irreducible_chain, two_block_at_0_999,
            knobs_at_their_ends]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.__name__)
def test_edge_of_domain(family, tmp_path):
    family(tmp_path)
