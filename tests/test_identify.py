import tracemalloc

import numpy as np
import pytest

from tfcgc import pipeline
from tfcgc.bsplines import BSplineSpec, basis_eval, build_dictionary
from tfcgc.causality import _fit_models
from tfcgc.identify import (
    ELIMINATION_THRESHOLD,
    PESR_MU,
    ConfigError,
    DataError,
    NumericError,
    RofrConfig,
    expand_regressors,
    fit_equations,
    fit_tvarx,
    recursive_covariance,
    reconstruct_coefficients,
    rofr_select,
    _sampled_basis,
)


def greedy_ofr_oracle(psi, x, n_terms):
    """Independent classical OFR (rho=0): re-orthogonalize from scratch at
    every step, score by squared correlation with the residual."""
    m = psi.shape[1]
    selected = []
    for _ in range(n_terms):
        best, best_score = None, -1.0
        q_sel = np.linalg.qr(psi[:, selected])[0] if selected else None
        r = x - q_sel @ (q_sel.T @ x) if selected else x.copy()
        for cand in range(m):
            if cand in selected:
                continue
            h = psi[:, cand].copy()
            if q_sel is not None:
                h = h - q_sel @ (q_sel.T @ h)
            hh = h @ h
            if hh < 1e-12:
                continue
            score = (h @ r) ** 2 / (x @ x * hh)
            if score > best_score + 1e-14:
                best, best_score = cand, score
        if best is None:
            break
        selected.append(best)
    return selected


def explicit_rofr_oracle(psi, x, config):
    """ROFR with explicit deflation: every remaining candidate column is
    deflated against each new orthogonal direction and its squared norm
    recomputed from the N rows, then screened against its undeflated
    squared norm.  Returns the candidates in the order the search took them
    and the PESR argmin q."""
    eps = ELIMINATION_THRESHOLD
    rho = config.regularization
    xtx = x @ x
    h = psi.copy()
    h_sq = np.einsum("ij,ij->j", h, h)
    col_sq = h_sq.copy()
    active = h_sq > 0
    n = x.shape[0]
    mu = PESR_MU
    picks, rerrs, pesr = [], [], []
    r = x.copy()
    rising = 0
    for step in range(1, min(config.max_terms, int(active.sum())) + 1):
        if mu * step / n >= 1.0 or not active.any():
            break
        idx = np.flatnonzero(active)
        scores = (h[:, idx].T @ r) ** 2 / (xtx * (h_sq[idx] + rho))
        best = int(idx[np.argmax(scores)])
        hb = h[:, best].copy()
        hb_sq = h_sq[best]
        rerrs.append((hb @ r) ** 2 / (xtx * (hb_sq + rho)))
        r = r - ((r @ hb) / hb_sq) * hb
        picks.append(best)
        active[best] = False
        h[:, active] -= np.outer(hb, (hb @ h[:, active]) / hb_sq)
        h_sq[active] = np.einsum("ij,ij->j", h[:, active], h[:, active])
        active &= (h_sq >= eps * col_sq) & (h_sq > 0)
        pesr.append((1.0 - sum(rerrs)) / (1.0 - mu * step / n) ** 2)
        rising = rising + 1 if len(pesr) >= 2 and pesr[-1] > pesr[-2] else 0
        if rising >= config.stop_patience:
            break
    return picks, int(np.argmin(pesr)) + 1


def covariance_loop_oracle(u1, u2, forgetting, init_window):
    """The exponentially forgetting trace as the plain recursion."""
    prod = u1 * u2
    sigma = np.empty(prod.shape[0])
    sigma[0] = prod[:init_window].mean()
    for t in range(1, prod.shape[0]):
        sigma[t] = (1.0 - forgetting) * sigma[t - 1] + forgetting * prod[t - 1]
    return sigma


def make_problem(rng, n=200, m=30):
    """Random dense problem wrapped so rofr_select can consume it."""
    from tfcgc.identify import RegressionProblem

    psi = rng.standard_normal((n, m))
    x = rng.standard_normal(n)
    d = build_dictionary({3}, 2, [1])  # placeholder dictionary, not used
    return RegressionProblem(psi, x, d, 1, n)


class TestExpandRegressors:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        sig = rng.standard_normal((2, 500))
        d = build_dictionary({3, 4, 5}, 3, [3, 3])
        prob = expand_regressors(sig, 0, [1], d)
        assert prob.design_matrix.shape == (497, 216)
        assert prob.target.shape == (497,)
        assert prob.start_sample == 4

    def test_entries_match_definition(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal((2, 60))
        d = build_dictionary({3}, 2, [2, 1])
        prob = expand_regressors(sig, 0, [1], d)
        n = 60
        variables = [0, 1]
        for col, (v, k, spec) in enumerate(d.candidates):
            for row, t in enumerate(range(prob.start_sample, n + 1)):
                expected = sig[variables[v], t - k - 1] * basis_eval(spec, t / n)
                assert prob.design_matrix[row, col] == pytest.approx(expected)

    def test_zero_predictor_gives_zero_columns(self):
        rng = np.random.default_rng(2)
        sig = np.vstack([rng.standard_normal(200), np.zeros(200)])
        d = build_dictionary({3, 4, 5}, 3, [3, 3])
        prob = expand_regressors(sig, 0, [1], d)
        assert np.all(prob.design_matrix[:, 108:] == 0.0)

    def test_insufficient_data(self):
        d = build_dictionary({3}, 2, [3, 3])
        with pytest.raises(DataError, match="need more than max-lag=3 samples, got 1"):
            expand_regressors(np.ones((2, 1)), 0, [1], d)

    def test_basis_shared_read_only(self):
        d = build_dictionary({3, 4, 5}, 3, [3, 3])
        sig = np.random.default_rng(3).standard_normal((2, 120))
        basis = _sampled_basis(d.orders, d.scale, 120)
        assert _sampled_basis(d.orders, d.scale, 120) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0
        prob = expand_regressors(sig, 0, [1], d)
        np.testing.assert_array_equal(
            prob.design_matrix[:, : d.bases_per_term], sig[0, 2:-1, None] * basis[3:]
        )

    def test_variable_count_mismatch(self):
        d = build_dictionary({3}, 2, [3, 3])
        with pytest.raises(DataError, match="dictionary declares 2 variables"):
            expand_regressors(np.ones((3, 50)), 0, [1, 2], d)


class TestRofrSelect:
    def test_perfect_single_term(self):
        rng = np.random.default_rng(3)
        prob = make_problem(rng)
        prob.target = prob.design_matrix[:, 7].copy()
        res = rofr_select(prob, RofrConfig(regularization=0.0))
        assert res.selected_indices[0] == 7
        assert res.rerr_sequence[0] == pytest.approx(1.0, abs=1e-12)
        assert res.term_count == 1

    def test_matches_classical_ofr(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            prob = make_problem(rng, n=120, m=20)
            res = rofr_select(prob, RofrConfig(regularization=0.0, max_terms=8))
            oracle = greedy_ofr_oracle(
                prob.design_matrix, prob.target, res.term_count
            )
            assert res.selected_indices == oracle

    def test_planted_model_recovery(self):
        n = 500
        spec = BSplineSpec(3, 3, 0)
        u = np.arange(1, n + 1) / n
        coeff = 0.8 * basis_eval(spec, u)
        hits = 0
        d = build_dictionary({3, 4, 5}, 3, [1])
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = np.zeros(n)
            noise = rng.normal(0, 0.1, n)
            for t in range(1, n):
                x[t] = coeff[t] * x[t - 1] + noise[t]
            prob = expand_regressors(x[None, :], 0, [], d)
            res = rofr_select(prob, RofrConfig())
            planted = next(
                i
                for i, (v, k, s) in enumerate(d.candidates)
                if v == 0 and k == 1 and s == spec
            )
            if planted in res.selected_indices:
                hits += 1
        assert hits >= 90

    def test_rerr_bounds_and_energy_identity(self):
        rng = np.random.default_rng(4)
        prob = make_problem(rng, n=150, m=25)
        res = rofr_select(prob, RofrConfig(regularization=0.0, max_terms=10))
        assert np.all(res.rerr_sequence >= 0.0)
        assert np.all(res.rerr_sequence <= 1.0)
        x = prob.target
        lhs = res.rerr_sequence.sum()
        rhs = 1.0 - (res.residual @ res.residual) / (x @ x)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_residual_monotone(self):
        rng = np.random.default_rng(5)
        prob = make_problem(rng, n=150, m=25)
        res = rofr_select(prob, RofrConfig(regularization=0.0, max_terms=12))
        # reconstruct per-step residual norms from the energy identity
        x_sq = prob.target @ prob.target
        norms = np.sqrt((1.0 - np.cumsum(res.rerr_sequence)) * x_sq)
        assert np.all(np.diff(norms) <= 1e-9)

    def test_regularization_shrinks_scores(self):
        rng = np.random.default_rng(6)
        psi = rng.standard_normal((100, 15))
        x = rng.standard_normal(100)
        xtx = x @ x
        for rho_small, rho_big in [(0.0, 1.0), (0.5, 5.0)]:
            s_small = (psi.T @ x) ** 2 / (
                xtx * (np.einsum("ij,ij->j", psi, psi) + rho_small)
            )
            s_big = (psi.T @ x) ** 2 / (
                xtx * (np.einsum("ij,ij->j", psi, psi) + rho_big)
            )
            assert np.all(s_big <= s_small + 1e-15)

    def test_least_squares_on_selected_terms(self):
        # unregularized, the factorization Phi = Q V solves least squares
        # on the selected columns: the residual is orthogonal to Phi and
        # the coefficients are numpy's least-squares solution
        rng = np.random.default_rng(7)
        prob = make_problem(rng, n=150, m=25)
        res = rofr_select(prob, RofrConfig(regularization=0.0, max_terms=10))
        phi = prob.design_matrix[:, res.selected_indices]
        assert np.abs(phi.T @ res.residual).max() < 1e-8
        np.testing.assert_allclose(phi @ res.coefficients + res.residual, prob.target)
        expected, *_ = np.linalg.lstsq(phi, prob.target, rcond=None)
        np.testing.assert_allclose(res.coefficients, expected, rtol=1e-8, atol=1e-10)

    def test_exact_interpolation(self):
        rng = np.random.default_rng(8)
        d = build_dictionary({3, 4, 5}, 3, [2])
        sig = rng.standard_normal((1, 300))
        prob = expand_regressors(sig, 0, [], d)
        cols = [10, 45, 60]
        prob.target = prob.design_matrix[:, cols] @ np.array([1.0, -2.0, 0.5])
        res = rofr_select(prob, RofrConfig(regularization=0.0))
        x_norm = np.linalg.norm(prob.target)
        assert np.linalg.norm(res.residual) < 1e-8 * x_norm
        assert set(res.selected_indices[:3]) == set(cols)

    def test_all_zero_candidates_rejected(self):
        from tfcgc.identify import RegressionProblem

        d = build_dictionary({3}, 2, [1])
        prob = RegressionProblem(np.zeros((50, 5)), np.ones(50), d, 1, 50)
        with pytest.raises(NumericError, match="all candidates eliminated by the norm"):
            rofr_select(prob, RofrConfig())

    def test_argmax_invariant_to_denominator(self):
        rng = np.random.default_rng(9)
        psi = rng.standard_normal((80, 12))
        x = rng.standard_normal(80)
        num = (psi.T @ x) ** 2 / (np.einsum("ij,ij->j", psi, psi))
        assert np.argmax(num / (x @ x)) == np.argmax(num / 7.31)


class TestGramScreen:
    """The Gram-space search against explicit deflation where it is most
    fragile: orders 3/4/5 at scale 0 are nested polynomial spaces, so each
    (variable, lag) block holds 12 nonzero columns of rank 5, and a 1e3
    signal scale puts G_jj near 1e8, where Gram-space cancellation leaves
    norms far above the 1e-12 screen.  These seeds exhaust blocks within
    the search (the norm guard fires in each) while the oracle's picks up
    to the PESR argmin keep a runner-up score gap above 1e-3."""

    @staticmethod
    def chirp_problem(seed):
        n = 500
        u = np.arange(n) / n
        rng = np.random.default_rng(seed)
        f = 8 + 4 * u + rng.uniform(-1, 1)
        z = np.sin(2 * np.pi * np.cumsum(f) / 250 + rng.uniform(0, 6))
        z += 0.01 * rng.standard_normal(n)
        x = np.cos(2 * np.pi * np.cumsum(f + 2) / 250) + 0.5 * np.roll(z, 1)
        x += 0.01 * rng.standard_normal(n)
        d = build_dictionary({3, 4, 5}, 0, [2, 2])
        return expand_regressors(1e3 * np.vstack([x, z]), 0, [1], d)

    @pytest.mark.parametrize("seed", [5, 7, 8])
    def test_matches_explicit_deflation(self, seed):
        prob = self.chirp_problem(seed)
        config = RofrConfig(regularization=0.0)
        psi = prob.design_matrix
        assert np.einsum("ij,ij->j", psi, psi).max() > 1e7
        res = rofr_select(prob, config)
        picks, q = explicit_rofr_oracle(psi, prob.target, config)
        assert res.selected_indices == picks[:q]
        assert res.term_count == q
        assert len(res.pesr_trace) == len(picks)
        # explicit deflated norm of each chosen column against those before it
        r_factor = np.linalg.qr(psi[:, res.selected_indices], mode="r")
        assert np.min(np.diag(r_factor) ** 2) >= 1e-12


    @pytest.mark.parametrize("seed", [5, 7, 8, 13])
    def test_coefficients_match_least_squares(self, seed):
        # V and the norms come from inner products; the refinement step
        # with the explicit residual brings the coefficients to lstsq
        prob = self.chirp_problem(seed)
        res = rofr_select(prob, RofrConfig(regularization=0.0))
        phi = prob.design_matrix[:, res.selected_indices]
        ls, *_ = np.linalg.lstsq(phi, prob.target, rcond=None)
        err = np.abs(res.coefficients - ls).max() / np.abs(ls).max()
        assert err <= 1e-10
        np.testing.assert_array_equal(
            res.residual, prob.target - phi @ res.coefficients
        )


def crop_equations(channels):
    """The 25 equations of a 5-channel crop in ``_fit_models`` order:
    the full system, then one restricted system per excluded source."""
    systems = [channels] + [[c for c in channels if c != s] for s in channels]
    return systems, [
        (chan, [c for c in system if c != chan], system)
        for system in systems
        for chan in system
    ]


class TestLockstepSearch:
    """All equations of a crop run as one search over shared columns."""

    @pytest.fixture(scope="class")
    def crop(self):
        trials = pipeline.synth_generate(
            pipeline.SynthSpec(trials_per_class=1, trial_seconds=2.0), seed=4
        )
        return pipeline.bandpass(trials, 6.0, 15.0).trials[0].data

    @pytest.mark.parametrize(
        "run",
        [
            pipeline.RunConfig(orders=(3,), lags=2, time_decimation=10),  # criterion 15
            pipeline.RunConfig(),  # full scale
        ],
        ids=["criterion15", "fullscale"],
    )
    def test_matches_explicit_search_per_equation(self, crop, run):
        config = run.cgc_config()
        systems, equations = crop_equations(list(range(5)))
        models = [m for fitted in _fit_models(crop, systems, config) for m in fitted]
        assert len(models) == 25
        for model, (target, predictors, system) in zip(models, equations):
            assert (model.target_index, model.predictor_indices) == (target, predictors)
            d = build_dictionary(config.orders, config.scale, [config.lags] * len(system))
            prob = expand_regressors(crop, target, predictors, d)
            oracle_config = RofrConfig(regularization=model.rofr.regularization)
            picks, q = explicit_rofr_oracle(
                prob.design_matrix, prob.target, oracle_config
            )
            assert model.rofr.selected_indices == picks[:q]
            assert len(model.rofr.pesr_trace) == len(picks)

    def test_restricted_equation_never_sees_its_source(self):
        # channel 0 is channel 1 one sample late: any equation of 0 that can
        # read 1 explains nearly all of it
        rng = np.random.default_rng(21)
        sig = rng.standard_normal((4, 400))
        sig[0, 1:] = sig[1, :-1] + 0.01 * rng.standard_normal(399)
        d_full = build_dictionary({3}, 2, [2] * 4)
        d_rest = build_dictionary({3}, 2, [2] * 3)
        full, rest = fit_equations(
            sig, [(0, [1, 2, 3], d_full), (0, [2, 3], d_rest)], RofrConfig()
        )
        x = sig[0, 2:]
        assert full.residuals @ full.residuals < 1e-3 * (x @ x)
        assert rest.residuals @ rest.residuals > 0.5 * (x @ x)
        assert all(rest.variables[slot] != 1 for slot, _, _ in rest.selected_terms)
        # the fit is what its named terms give
        u = np.arange(3, 401) / 400
        fitted = np.zeros(398)
        for (slot, lag, spec), c in zip(rest.selected_terms, rest.expansion_coefficients):
            fitted += c * sig[rest.variables[slot], 2 - lag : 400 - lag] * basis_eval(spec, u)
        np.testing.assert_allclose(x - fitted, rest.residuals[2:], atol=1e-10)

    def test_memory_linear_in_columns(self, crop):
        """The search keeps only the Gram rows it picks: on a 500-sample crop
        at scale 7 (m = 5,940 columns) its traced peak stays under half of
        an m x m buffer."""
        d = build_dictionary((3, 4, 5), 7, [3] * 5)
        equations = [(c, [p for p in range(5) if p != c], d) for c in range(5)]
        m = d.candidate_count
        assert m == 5940
        tracemalloc.start()
        try:
            fit_equations(crop, equations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m / 2

    def test_equations_must_share_samples(self):
        sig = np.random.default_rng(22).standard_normal((2, 100))
        with pytest.raises(DataError, match="must share orders, scale and maximum lag"):
            fit_equations(
                sig,
                [
                    (0, [1], build_dictionary({3}, 2, [2, 2])),
                    (1, [0], build_dictionary({3}, 2, [3, 3])),
                ],
            )


class TestSolveParameters:
    def test_orthogonal_columns(self):
        rng = np.random.default_rng(10)
        from tfcgc.identify import RegressionProblem

        q_full, _ = np.linalg.qr(rng.standard_normal((60, 5)))
        psi = q_full * rng.uniform(1, 3, 5)
        x = rng.standard_normal(60)
        d = build_dictionary({3}, 2, [1])
        prob = RegressionProblem(psi, x, d, 1, 60)
        res = rofr_select(prob, RofrConfig(regularization=0.0, max_terms=5))
        for i, idx in enumerate(res.selected_indices):
            xi = psi[:, idx]
            assert res.coefficients[i] == pytest.approx((xi @ x) / (xi @ xi))

    def test_matches_least_squares(self):
        from tfcgc.identify import RegressionProblem

        d = build_dictionary({3}, 2, [1])
        for seed in range(50):
            rng = np.random.default_rng(200 + seed)
            psi = rng.standard_normal((100, 5))
            x = rng.standard_normal(100)
            prob = RegressionProblem(psi, x, d, 1, 100)
            res = rofr_select(
                prob, RofrConfig(regularization=0.0, max_terms=5, stop_patience=5)
            )
            if res.term_count < 5:
                continue
            sel = res.selected_indices
            ls, *_ = np.linalg.lstsq(psi[:, sel], x, rcond=None)
            assert np.linalg.norm(res.coefficients - ls) <= 1e-8 * np.linalg.norm(ls)


class TestRecursiveCovariance:
    def test_constant_fixed_point(self):
        c = 1.7
        sigma = recursive_covariance(np.full(100, c), np.full(100, c), 0.1, 10)
        np.testing.assert_allclose(sigma, c * c)

    def test_recursion_identity(self):
        rng = np.random.default_rng(11)
        u1, u2 = rng.standard_normal((2, 300))
        z = 0.05
        sigma = recursive_covariance(u1, u2, z, 20)
        for t in range(1, 300):
            assert sigma[t] == (1 - z) * sigma[t - 1] + z * (u1[t - 1] * u2[t - 1])

    def test_independent_noise_near_zero(self):
        means = []
        for seed in range(100):
            rng = np.random.default_rng(300 + seed)
            u1, u2 = rng.standard_normal((2, 5000))
            sigma = recursive_covariance(u1, u2, 0.02, 50)
            means.append(sigma[-1000:].mean())
        assert abs(np.mean(means)) < 0.1

    def test_unit_variance_tracked(self):
        means = []
        for seed in range(100):
            rng = np.random.default_rng(400 + seed)
            u = rng.standard_normal(5000)
            sigma = recursive_covariance(u, u, 0.02, 50)
            means.append(sigma.mean())
        assert abs(np.mean(means) - 1.0) < 0.1

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal(1000)
        sigma = recursive_covariance(u, u, 0.3, 5)
        assert np.all(sigma >= 0.0)

    @pytest.mark.parametrize(
        "forgetting, init_window", [(0.02, 50), (0.3, 1), (0.9, 7), (1e-4, 300)]
    )
    def test_matches_loop(self, forgetting, init_window):
        rng = np.random.default_rng(17)
        scale = 10.0 ** rng.uniform(-3, 3, (2, 300))
        u1, u2 = scale * rng.standard_normal((2, 300))
        sigma = recursive_covariance(u1, u2, forgetting, init_window)
        expected = covariance_loop_oracle(u1, u2, forgetting, init_window)
        np.testing.assert_allclose(sigma, expected, rtol=1e-15, atol=0)

    def test_single_sample(self):
        sigma = recursive_covariance(np.array([2.0]), np.array([3.0]), 0.1, 1)
        np.testing.assert_array_equal(sigma, [6.0])

    def test_invalid_forgetting(self):
        with pytest.raises(
            ConfigError, match=r"forgetting factor must be in \(0, 1\), got 1.5"
        ):
            recursive_covariance(np.ones(10), np.ones(10), 1.5, 2)


class TestFitTvarx:
    def test_stationary_ar1(self):
        # unit-innovation AR(1) is a low-R^2 regression; a coarse scale keeps
        # the pointwise estimation variance inside the +/-0.1 band
        rng = np.random.default_rng(13)
        n = 1000
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + rng.standard_normal()
        d = build_dictionary({3, 4, 5}, 0, [3])
        model = fit_tvarx(x[None, :], 0, [], d)
        a = model.timevarying_coefficients.get((0, 1), np.zeros(n))
        interior = a[int(0.1 * n) : int(0.9 * n)]
        assert np.all(np.abs(interior - 0.5) < 0.1)

    def test_piecewise_constant_coupling(self):
        n = 1000
        t_ax = np.arange(n)
        a_true = np.where(t_ax < n // 2, 0.5, -0.5)
        d = build_dictionary({3, 4, 5}, 3, [2, 2])
        rmses = []
        for seed in range(5):
            rng = np.random.default_rng(600 + seed)
            z = rng.standard_normal(n)
            x = np.zeros(n)
            for t in range(1, n):
                x[t] = 0.3 * x[t - 1] + a_true[t] * z[t - 1]
            noise_sd = np.std(x) * 10 ** (-20 / 20)
            xn = x + rng.normal(0, noise_sd, n)
            model = fit_tvarx(np.vstack([xn, z]), 0, [1], d)
            est = model.timevarying_coefficients.get((1, 1), np.zeros(n))
            keep = np.ones(n, bool)
            keep[n // 2 - 16 : n // 2 + 17] = False
            rmses.append(np.sqrt(np.mean((est[keep] - a_true[keep]) ** 2)))
        assert np.median(rmses) < 0.1

    def test_sinusoidal_coupling_recovery(self):
        errors = []
        for seed in range(5):
            rng = np.random.default_rng(500 + seed)
            n = 1000
            t_ax = np.arange(n)
            a12 = 0.5 * np.sin(2 * np.pi * t_ax / n)
            z = rng.standard_normal(n)
            x = np.zeros(n)
            drive = np.zeros(n)
            for t in range(1, n):
                drive[t] = a12[t] * z[t - 1]
                x[t] = 0.3 * x[t - 1] + drive[t]
            noise_sd = np.std(x) * 10 ** (-20 / 20)
            x = x + rng.normal(0, noise_sd, n)
            d = build_dictionary({3, 4, 5}, 3, [2, 2])
            model = fit_tvarx(np.vstack([x, z]), 0, [1], d)
            est = model.timevarying_coefficients.get((1, 1), np.zeros(n))
            rmse = np.sqrt(np.mean((est - a12) ** 2))
            errors.append(rmse)
        assert np.median(errors) < 0.12

    def test_round_trip_reconstruction(self):
        d = build_dictionary({3, 4}, 2, [2])
        n = 400
        u = np.arange(1, n + 1) / n
        rng = np.random.default_rng(14)
        sig = rng.standard_normal((1, n))
        model = fit_tvarx(sig, 0, [], d, RofrConfig(max_terms=5))
        rebuilt = reconstruct_coefficients(model)
        direct = {}
        for (slot, lag, spec), c in zip(
            model.selected_terms, model.expansion_coefficients
        ):
            key = (model.variables[slot], lag)
            direct.setdefault(key, np.zeros(n))
            direct[key] += c * basis_eval(spec, u)
        for key in direct:
            np.testing.assert_allclose(rebuilt[key], direct[key], atol=1e-12)

    def test_reconstruction_matches_per_term_basis(self):
        # the sampled basis columns equal basis_eval and the sums run in
        # term order, so the series are bit-identical to the per-term oracle
        d = build_dictionary({3, 4, 5}, 3, [3, 3, 3])
        n = 500
        u = np.arange(1, n + 1) / n
        rng = np.random.default_rng(17)
        sig = rng.standard_normal((3, n))
        for t in range(2, n):
            sig[0, t] = (
                0.5 * sig[0, t - 1]
                - 0.3 * sig[0, t - 2]
                + 2.0 * np.sin(2 * np.pi * u[t]) * sig[1, t - 1]
                + 0.1 * sig[0, t]
            )
        model = fit_tvarx(sig, 0, [1, 2], d)
        assert model.rofr.term_count > 5
        oracle = {}
        for (slot, lag, spec), c in zip(
            model.selected_terms, model.expansion_coefficients
        ):
            key = (model.variables[slot], lag)
            oracle.setdefault(key, np.zeros(n))
            oracle[key] += c * basis_eval(spec, u)
        rebuilt = reconstruct_coefficients(model)
        assert rebuilt.keys() == oracle.keys()
        for key in oracle:
            np.testing.assert_array_equal(rebuilt[key], oracle[key])

    def test_pure_ar_with_no_predictors_is_legal(self):
        rng = np.random.default_rng(15)
        d = build_dictionary({3}, 2, [2])
        model = fit_tvarx(rng.standard_normal((1, 300)), 0, [], d)
        assert model.predictor_indices == []

    def test_residual_definition(self):
        rng = np.random.default_rng(16)
        d = build_dictionary({3}, 2, [2])
        sig = rng.standard_normal((1, 300))
        model = fit_tvarx(sig, 0, [], d)
        prob = expand_regressors(sig, 0, [], d)
        fitted = prob.design_matrix[:, model.rofr.selected_indices] @ (
            model.rofr.coefficients
        )
        np.testing.assert_allclose(
            model.residuals[model.start_sample - 1 :], prob.target - fitted
        )
