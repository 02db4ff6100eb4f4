"""Command-line surface: formats, exit codes, reproducibility."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from uppkit import cli, effects, fitting, harness, simulation
from uppkit.cli import main
from tests.conftest import fixture_path, run_python, spatial_fixture_to_dict

MARKET = str(fixture_path("staples_od.json"))
ECONOMY = str(fixture_path("staples_od_economy.json"))


@pytest.fixture()
def runner():
    return CliRunner()


class TestGuppi:
    def test_table_values(self, runner):
        result = runner.invoke(main, ["guppi", MARKET])
        assert result.exit_code == 0
        assert "10.4%" in result.output
        assert "13.7%" in result.output

    def test_naive_column(self, runner):
        result = runner.invoke(main, ["guppi", MARKET, "--naive"])
        assert result.exit_code == 0
        assert "14.0%" in result.output
        assert "17.8%" in result.output

    def test_zero_efficiency_zero_diversion(self, runner, tmp_path):
        doc = {
            "products": [
                {"id": "A", "firm": "f1", "revenue": 10.0, "margin": 0.3},
                {"id": "B", "firm": "f2", "revenue": 10.0, "margin": 0.3},
            ],
            "diversion": {"order": ["A", "B"], "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
            "merger": {"firm_a": "f1", "firm_b": "f2"},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["guppi", str(path), "--efficiency", "0", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        for rec in payload["result"]["products"]:
            assert rec["guppi"] == 0.0

    def test_evaluates_kernel_once(self, runner, monkeypatch):
        """One screening evaluation serves the elasticity, GUPPI and naive columns."""
        calls = []
        kernel = effects._screen
        monkeypatch.setattr(effects, "_screen", lambda *args: calls.append(1) or kernel(*args))
        result = runner.invoke(main, ["guppi", MARKET, "--naive"])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_json_full_precision(self, runner):
        result = runner.invoke(main, ["guppi", MARKET, "--format", "json"])
        payload = json.loads(result.output)
        by_id = {r["id"]: r for r in payload["result"]["products"]}
        assert abs(by_id["SP"]["guppi"] - 0.10411090702087286) < 1e-15
        assert payload["manifest"]["command"] == "guppi"


class TestValidateCommand:
    def test_ok(self, runner):
        result = runner.invoke(main, ["validate", MARKET])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_invalid_market_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "products": [{"id": "A", "firm": "f1", "revenue": 1.0, "margin": 1.2}],
            "diversion": {"order": ["A"], "matrix": [[-1.0]]},
        }))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert "margin" in result.output

    def test_outside_product_csv_row_exits_2(self, runner, tmp_path):
        (tmp_path / "products.csv").write_text(
            "id,firm,revenue,margin\nSP,Staples,9.7e8,0.258\nOD,OfficeDepot,6.5e8,0.234\n"
            "OUTSIDE,Ghost,1,0.5\n")
        (tmp_path / "diversion.csv").write_text(
            "from,to,value\nSP,OD,0.6\nOD,SP,0.69\nSP,OUTSIDE,0.4\nOD,OUTSIDE,0.31\n")
        result = runner.invoke(main, ["validate", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "[reserved-id] OUTSIDE" in result.output
        assert result.output.count("] ") == 1, result.output  # no second finding
        assert "Traceback" not in result.output

    def test_missing_file_is_usage_error(self, runner):
        result = runner.invoke(main, ["validate", "/nope/nothing.json"])
        assert result.exit_code == 2

    def test_csv_pair_through_products_path(self, runner, tmp_path):
        """A path to products.csv reads diversion.csv beside it."""
        (tmp_path / "products.csv").write_text("id,firm,revenue,margin\nA,f1,100,0.3\nB,f2,50,0.25\n")
        (tmp_path / "diversion.csv").write_text("from,to,value\nA,B,-0.4\nB,A,0.5\n")
        result = runner.invoke(main, ["validate", str(tmp_path / "products.csv")])
        assert result.exit_code == 2
        assert "[negative-diversion] A" in result.output

    def test_directory_without_products_csv_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["guppi", str(tmp_path)])
        assert result.exit_code == 2
        assert f"cannot read {tmp_path / 'products.csv'}" in result.output

    def test_lists_each_finding(self, runner, tmp_path):
        """A bad margin, a negative revenue and a negative diversion are three
        findings, one per line and one per JSON entry."""
        doc = _market_with(matrix=[[-1.0, -0.1], [0.69, -1.0]])
        doc["products"][0]["margin"] = 1.5
        doc["products"][1]["revenue"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path), "--format", "json"])
        assert result.exit_code == 2, result.output
        violations = json.loads(result.output)["result"]["violations"]
        assert [v.split("]")[0] for v in violations] == [
            "[margin-range", "[revenue-negative", "[negative-diversion"]
        table = runner.invoke(main, ["validate", str(path)])
        assert table.output.splitlines()[:4] == ["INVALID:", *(f"  {v}" for v in violations)]


class TestSimulateCommand:
    def test_table_values(self, runner):
        result = runner.invoke(main, ["simulate", MARKET, ECONOMY])
        assert result.exit_code == 0
        assert "14.3%" in result.output
        assert "18.0%" in result.output

    def test_json_contains_post_state(self, runner):
        result = runner.invoke(main, ["simulate", MARKET, ECONOMY, "--format", "json"])
        payload = json.loads(result.output)["result"]
        assert payload["converged"] is True
        assert payload["residual_norm"] < 1e-10
        assert payload["merging_harm"] == pytest.approx(-255.7e6, abs=2e6)

    def test_nonconverged_writes_output_then_exits_3(self, runner, monkeypatch):
        solve = simulation.simulate
        monkeypatch.setattr(simulation, "simulate", lambda problem, config: solve(
            problem, simulation.SolverConfig(tolerance=1e-300)))
        result = runner.invoke(main, ["simulate", MARKET, ECONOMY, "--format", "json"])
        assert result.exit_code == 3
        assert json.loads(result.output)["result"]["converged"] is False


    def test_resolve_excursion_keeps_converged_root(self, runner, tmp_path):
        """At eta = 200 the uniqueness re-solve from twice the warm start tries
        a line-search point where SP's shares underflow; that point is no
        improvement, and the root the main solve found is reported."""
        path = tmp_path / "economy.json"
        path.write_text(json.dumps(_economy_with(eta=200)))
        result = runner.invoke(main, ["simulate", MARKET, str(path), "--format", "json", "--quiet"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)["result"]
        assert payload["converged"] is True
        assert payload["price_changes"]["SP"] == pytest.approx(-0.01667, abs=1e-5)
        assert payload["price_changes"]["OD"] == pytest.approx(0.01513, abs=1e-5)


@pytest.mark.parametrize("argv", [["simulate", MARKET, "ECON"], ["second-choice", "ECON", "--remove", "SP"]])
def test_nested_economy_exits_2(runner, tmp_path, argv):
    """Simulation and removal diversion use plain CES shares, so a nested
    economy with mu < 1 is refused; at mu = 1 it gives the plain numbers."""
    def run(**fields):
        path = tmp_path / "economy.json"
        path.write_text(json.dumps(_economy_with(**fields)))
        return runner.invoke(main, [str(path) if a == "ECON" else a for a in argv] + ["--quiet"])

    nested = run(nests={"SP": "a", "OD": "a"}, mu=0.2)
    assert nested.exit_code == 2, nested.output
    assert "mu = 0.2 < 1" in nested.output
    plain = run()
    assert plain.exit_code == 0
    assert run(nests={"SP": "a", "OD": "a"}, mu=1.0).output == plain.output


@pytest.mark.parametrize("argv", [
    ["simulate", MARKET, ECONOMY, "--tolerance", "-1"],
    ["simulate", MARKET, ECONOMY, "--tolerance", "nan"],
    ["fit", "--synthetic-seed", "1", "--tracts", "-5"],
    ["fit", "--synthetic-seed", "1", "--stores", "-1"],
    ["fit", "--synthetic-seed", "1", "--mu", "2"],
    ["guppi", MARKET, "--efficiency", "0.5"],
], ids=["tolerance-negative", "tolerance-nan", "tracts-negative", "stores-negative",
        "mu-above-one", "efficiency-positive"])
def test_option_out_of_range_exits_2(runner, argv):
    """A solver tolerance that is not finite and positive, or a synthetic
    geography without tracts or stores or with mu above 1, is refused before
    any work."""
    result = runner.invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.stderr


def _three_product_market(firms):
    """Products A, B, C owned by ``firms``; the merger joins f1 and f2."""
    return {
        "products": [{"id": pid, "firm": firm, "revenue": 1.0, "margin": 0.3}
                     for pid, firm in zip("ABC", firms)],
        "diversion": {"order": list("ABC"),
                      "matrix": [[-1.0, 0.2, 0.1], [0.2, -1.0, 0.1], [0.1, 0.1, -1.0]]},
        "merger": {"firm_a": "f1", "firm_b": "f2"},
    }


THREE_FIRMS = _three_product_market(["f1", "f2", "f3"])
MULTI_PRODUCT = _three_product_market(["f1", "f1", "f2"])


class TestPassthroughCommand:
    def test_matrix_rendered(self, runner):
        result = runner.invoke(main, ["passthrough", MARKET])
        assert result.exit_code == 0
        assert "1.006" in result.output
        assert "0.346" in result.output

    @pytest.mark.parametrize("doc, message", [
        (THREE_FIRMS, "ces pass-through supports two-firm markets only"),
        (MULTI_PRODUCT, "ces pass-through supports single-product merging firms only"),
    ], ids=["three-firms", "multi-product"])
    def test_out_of_scope_market_exits_2(self, runner, tmp_path, doc, message):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["passthrough", str(path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output


class TestWelfareCommand:
    def test_totals(self, runner):
        result = runner.invoke(main, ["welfare", MARKET, "--format", "json"])
        payload = json.loads(result.output)["result"]
        assert payload["totals"]["cs"] == pytest.approx(-268.2e6, abs=2e6)

    def test_identity_override(self, runner):
        result = runner.invoke(main, ["welfare", MARKET, "--passthrough", "identity",
                                      "--format", "json"])
        payload = json.loads(result.output)["result"]
        by_id = {r["id"]: r for r in payload["products"]}
        assert by_id["SP"]["price_change"] == pytest.approx(by_id["SP"]["guppi"])

    def test_ces_falls_back_to_identity_beyond_two_firms(self, runner, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(THREE_FIRMS))
        result = runner.invoke(main, ["welfare", str(path), "--passthrough", "ces"])
        assert result.exit_code == 0, result.output
        assert ("note: ces passthrough unavailable (ces pass-through supports two-firm "
                "markets only); using identity") in result.output
        assert "note: identity pass-through: price effects approximated by GUPPI" in result.output


@pytest.mark.parametrize("argv", [
    ["welfare", "DOC", "--format", "json"],
    ["welfare", "DOC", "--format", "json", "--passthrough", "ces"],
    ["passthrough", "DOC"],
], ids=["welfare", "welfare-ces", "passthrough"])
def test_non_finite_result_exits_2(runner, tmp_path, argv):
    """A margin of 1e-300 makes the elasticity -1e300: the pass-through
    Jacobian and the welfare terms overflow. That is a validation error
    naming what overflowed, not a traceback or a bare -inf."""
    doc = json.loads(Path(MARKET).read_text())
    doc["products"][0]["margin"] = 1e-300
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [str(path) if a == "DOC" else a for a in argv])
    assert result.exit_code == 2, result.output
    assert "not finite" in result.output
    assert "Traceback" not in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["guppi", "cmcr", "welfare", "passthrough"])
def test_subnormal_margin_exits_2_without_warning(runner, tmp_path, command):
    """A margin of 1e-320 overflows the implied elasticity to -inf. The screen
    refuses it by product before any warning: exit 2, no traceback."""
    doc = json.loads(Path(MARKET).read_text())
    doc["products"][0]["margin"] = 1e-320
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "product SP: margins inconsistent with Bertrand FOC" in result.output
    assert "implied elasticity -inf is not finite" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("eta, budget, message", [
    (6.0, 1e-320, "spending moments underflow: ['SP', 'OD']"),
    (1e300, 2.05e9, "(eta - 1) x total weight x budget overflows"),
    (10.0, 2e-307, "simulation Jacobian overflows: (eta - 1) / spending"),
    (1e100, 2.05e9, "no consumer with positive weight x budget holds at an interior share: "
                    "['SP', 'OD']"),
], ids=["budget-subnormal", "eta-overflow", "jacobian-overflow", "eta-underflows-shares"])
def test_extreme_economy_simulate_exits_2_without_warning(runner, tmp_path, eta, budget, message):
    """A subnormal budget makes the spending moments subnormal; eta = 1e300
    overflows (1 - eta) x spending in the elasticities; eta = 10 with a budget
    of 2e-307 leaves the spending normal but overflows (1 - eta) / spending in
    the Newton Jacobian; at eta = 1e100 the GUPPI warm start underflows every
    inside share to 0, so no consumer holds an interior share. All are
    refused: exit 2."""
    doc = json.loads(Path(ECONOMY).read_text())
    doc["eta"], doc["consumers"][0]["budget"] = eta, budget
    econ = tmp_path / "economy.json"
    econ.write_text(json.dumps(doc))
    result = runner.invoke(main, ["simulate", MARKET, str(econ)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert message in result.output


def test_economy_with_mu_but_no_nests_exits_2(runner, tmp_path):
    doc = json.loads(Path(ECONOMY).read_text())
    doc["mu"] = 0.2
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["second-choice", str(path), "--remove", "SP"])
    assert result.exit_code == 2, result.output
    assert "no nest label" in result.output


class TestSecondChoiceCommand:
    def test_values(self, runner):
        result = runner.invoke(main, ["second-choice", ECONOMY, "--remove", "SP"])
        assert result.exit_code == 0
        assert "60.0%" in result.output

    def test_unknown_product_exit_2(self, runner):
        result = runner.invoke(main, ["second-choice", ECONOMY, "--remove", "ZZ"])
        assert result.exit_code == 2

    def test_removed_product_without_spending_exits_2(self, runner, tmp_path):
        """Only a zero-budget consumer considers X, so its lost revenue is 0 and
        diversion from it undefined: exit 2, never a bare NaN in the JSON."""
        path = tmp_path / "economy.json"
        path.write_text(json.dumps({"eta": 5, "consumers": [
            {"id": "a", "budget": 0, "utilities": {"X": 0.5, "Y": 0.2}},
            {"id": "b", "budget": 100, "utilities": {"Y": 0.3}},
        ]}))

        def reject(name):
            raise ValueError(f"bare {name} in JSON output")

        ok = runner.invoke(main, ["second-choice", str(path), "--remove", "Y", "--format", "json"])
        assert ok.exit_code == 0, ok.output
        diversion = json.loads(ok.output, parse_constant=reject)["result"]["diversion"]
        assert diversion == pytest.approx({"X": 0.0, "OUTSIDE": 1.0})
        result = runner.invoke(main, ["second-choice", str(path), "--remove", "X", "--format", "json"])
        assert result.exit_code == 2, result.output
        assert "undefined" in result.output


class TestCmcrCommand:
    def test_values(self, runner):
        result = runner.invoke(main, ["cmcr", MARKET, "--naive"])
        assert result.exit_code == 0
        assert "-29.1%" in result.output
        assert "56.9%" in result.output


class TestCaptiveDiversion:
    """Two single-product firms that divert all their lost sales to each other:
    D_jk = D_kj = 1, nothing to the outside option. ``validate`` accepts it."""

    def write(self, tmp_path, margin=None):
        doc = _market_with(matrix=[[-1.0, 1.0], [1.0, -1.0]], outside=[0.0, 0.0])
        for product in doc["products"]:
            product["margin"] = product["margin"] if margin is None else margin
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_naive_cmcr_undefined(self, runner, tmp_path):
        """1 - D_jk D_kj = 0 in the naive formula: ``cmcr --naive`` exits 2 and
        the welfare report's naive CMCR is null, not a ZeroDivisionError."""
        path = self.write(tmp_path)
        assert runner.invoke(main, ["validate", path]).exit_code == 0
        result = runner.invoke(main, ["cmcr", path, "--naive"])
        assert result.exit_code == 2, (result.output, result.exception)
        assert "naive CMCR undefined" in result.output
        result = runner.invoke(main, ["welfare", path, "--format", "json"])
        assert result.exit_code == 0, (result.output, result.exception)
        products = json.loads(result.output)["result"]["products"]
        assert [p["naive_cmcr"] for p in products] == [None, None]

    def test_singular_cmcr_system_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, ["cmcr", self.write(tmp_path, margin=1e-13)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert "did not converge: CMCR system singular" in result.output

    def test_ill_conditioned_cmcr_is_a_caveat(self, runner, tmp_path):
        result = runner.invoke(main, ["welfare", self.write(tmp_path, margin=1e-9),
                                      "--format", "json"])
        assert result.exit_code == 0, (result.output, result.exception)
        caveats = json.loads(result.output)["result"]["caveats"]
        assert any(c.startswith("CMCR system ill-conditioned (condition number 2e+09)")
                   for c in caveats)


class TestFitCommand:
    def test_synthetic_fit(self, runner):
        result = runner.invoke(main, ["fit", "--synthetic-seed", "5", "--tracts", "20",
                                      "--stores", "8", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)["result"]
        assert payload["converged"] is True
        assert payload["mu"] == pytest.approx(0.46, abs=1e-3)

    def test_fixture_file_fit(self, runner, tmp_path):
        import json as js

        fx = fitting.generate_spatial_fixture(
            fitting.SpatialConfig(seed=3, n_tracts=15, n_stores=6))
        path = tmp_path / "fx.json"
        path.write_text(js.dumps(spatial_fixture_to_dict(fx)))
        result = runner.invoke(main, ["fit", str(path), "--format", "json"])
        assert result.exit_code == 0
        payload = js.loads(result.output)["result"]
        assert payload["mu"] == pytest.approx(0.46, abs=1e-3)

    def test_requires_exactly_one_source(self, runner):
        result = runner.invoke(main, ["fit"])
        assert result.exit_code == 2

    def test_directory_is_not_a_geography_file(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", str(tmp_path)])
        assert result.exit_code == 2
        assert f"cannot read {tmp_path}" in result.output
        assert "Is a directory" in result.output


class TestHarnessCommand:
    def test_deterministic_csv(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            result = runner.invoke(main, [
                "harness", "--model", "ces", "--n", "4", "--seed", "7",
                "--out", str(out), "--quiet", "--format", "json",
            ])
            assert result.exit_code == 0, result.output
        assert out1.read_text() == out2.read_text()
        header = out1.read_text().splitlines()[0]
        assert header == "trial_id,model,n_products,product_id,guppi,predicted_pdd,true_pdd,cmcr"

    def test_summary_json(self, runner):
        result = runner.invoke(main, ["harness", "--model", "logit", "--n", "3",
                                      "--seed", "1", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["manifest"]["seed"] == 1
        assert payload["result"]["summary"]["n_markets"] == 3
        assert "median_relative_error" in payload["result"]["summary"]

    @pytest.mark.parametrize("flags", [["--n", "0", "--seed", "1"], ["--n", "2", "--seed", "-1"]])
    def test_bad_config_exits_2(self, runner, flags):
        result = runner.invoke(main, ["harness", *flags])
        assert result.exit_code == 2, result.output

    def test_json_without_records_has_no_nan(self, runner, monkeypatch):
        from uppkit import harness
        from uppkit.errors import ConvergenceError

        def fail(config, trial):
            raise ConvergenceError("stalled")

        def reject(name):
            raise ValueError(f"bare {name} in JSON output")

        monkeypatch.setattr(harness, "_run_trial", fail)
        result = runner.invoke(main, ["harness", "--n", "2", "--seed", "1", "--format", "json"])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output, parse_constant=reject)["result"]["summary"]
        assert summary["n_failed"] == 2
        assert summary["share_conservative"] is None

    def test_failures_counted_by_stage(self, runner, monkeypatch):
        """Trial 1 fails before the merger, the others when their post-merger
        stacks are solved; without a failure neither count is printed."""
        from uppkit.errors import ConvergenceError

        run_trial = harness._run_trial

        def fail_trial_1(config, trial):
            if trial == 1:
                raise ConvergenceError("pre-merger: stalled")
            return run_trial(config, trial)

        def stall(*args, **kwargs):
            raise ConvergenceError("stalled")

        args = ["harness", "--n", "3", "--seed", "1"]
        assert "failures" not in json.loads(runner.invoke(main, [*args, "--format", "json"]).output)["result"]
        assert "failed at" not in runner.invoke(main, args).output
        monkeypatch.setattr(harness, "_run_trial", fail_trial_1)
        monkeypatch.setattr(harness, "solve_bertrand", stall)
        doc = json.loads(runner.invoke(main, [*args, "--format", "json"]).output)["result"]
        assert doc["failures"] == {"post-merger": 2, "pre-merger": 1}
        assert doc["summary"]["n_failed"] == 3
        table = runner.invoke(main, args).output.splitlines()
        assert table[-3:-1] == ["failed at post-merger: 2", "failed at pre-merger: 1"]


class TestOutputPlumbing:
    def test_out_writes_file_and_manifest(self, runner, tmp_path):
        out = tmp_path / "g.json"
        result = runner.invoke(main, ["guppi", MARKET, "--format", "json",
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["products"]
        manifest = json.loads((tmp_path / "g.json.manifest.json").read_text())
        assert manifest["command"] == "guppi"

    def test_out_reports_the_written_path(self, runner, tmp_path):
        out = tmp_path / "x.json"
        result = runner.invoke(main, ["guppi", MARKET, "--out", str(out)])
        assert result.exit_code == 0
        assert result.output == f"wrote {out}\n"
        assert out.exists()

    def test_unwritable_out_exits_4(self, runner):
        result = runner.invoke(main, ["guppi", MARKET, "--out", "/nope/dir/x.json"])
        assert result.exit_code == 4

    def test_byte_identical_rerun_modulo_timestamp(self, runner):
        a = runner.invoke(main, ["guppi", MARKET, "--format", "json"])
        b = runner.invoke(main, ["guppi", MARKET, "--format", "json"])
        da, db = json.loads(a.output), json.loads(b.output)
        da["manifest"].pop("timestamp")
        db["manifest"].pop("timestamp")
        assert da == db

    def test_csv_format(self, runner):
        result = runner.invoke(main, ["guppi", MARKET, "--format", "csv", "--quiet"])
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("id,firm,margin")
        assert lines[1].startswith("SP,")

    def test_csv_manifest_goes_to_stderr(self, runner):
        result = runner.invoke(main, ["guppi", MARKET, "--format", "csv"])
        assert result.exit_code == 0
        assert result.stdout.startswith("id,firm,margin")
        assert json.loads(result.stderr)["command"] == "guppi"


# Each command's manifest flags as the command line has always hashed them.
_MANIFEST_CASES = {
    "validate": (["validate", MARKET], [MARKET], None, {"format": "json"}),
    "guppi": (["guppi", MARKET, "--naive", "--efficiency", "-0.05"], [MARKET], None,
              {"format": "json", "naive": True, "efficiency": -0.05}),
    "cmcr": (["cmcr", MARKET, "--naive"], [MARKET], None, {"format": "json", "naive": True}),
    "welfare": (["welfare", MARKET, "--passthrough", "identity"], [MARKET], None,
                {"format": "json", "passthrough": "identity"}),
    "passthrough": (["passthrough", MARKET], [MARKET], None, {"format": "json"}),
    "simulate": (["simulate", MARKET, ECONOMY, "--tolerance", "1e-9"], [MARKET, ECONOMY], None,
                 {"format": "json", "tolerance": 1e-9}),
    "second-choice": (["second-choice", ECONOMY, "--remove", "SP"], [ECONOMY], None,
                      {"format": "json", "remove": "SP"}),
    "fit": (["fit", "--synthetic-seed", "5", "--tracts", "20", "--stores", "8"], [], 5,
            {"format": "json", "weighting": "none", "tracts": 20, "stores": 8, "mu": 0.46}),
    "fit-file": (["fit", "FIXTURE", "--weighting", "revenue"], ["FIXTURE"], None,
                 {"format": "json", "weighting": "revenue", "tracts": 50, "stores": 20,
                  "mu": 0.46}),
    "harness": (["harness", "--model", "logit", "--n", "2", "--seed", "3"], [], 3,
                {"format": "json", "model": "logit", "n": 2}),
}


@pytest.mark.parametrize("case", list(_MANIFEST_CASES))
def test_manifest_contract(runner, tmp_path, case):
    """Inputs, seed and config hash of every command's manifest, and the
    options every command carries."""
    argv, inputs, seed, flags = _MANIFEST_CASES[case]
    fixture = tmp_path / "fx.json"
    fixture.write_text(json.dumps(spatial_fixture_to_dict(fitting.generate_spatial_fixture(
        fitting.SpatialConfig(seed=3, n_tracts=15, n_stores=6)))))
    argv, inputs = ([str(fixture) if a == "FIXTURE" else a for a in args] for args in (argv, inputs))
    result = runner.invoke(main, [*argv, "--format", "json"])
    assert result.exit_code == 0, result.output
    manifest = json.loads(result.output)["manifest"]
    assert manifest["command"] == argv[0]
    assert manifest["inputs"] == inputs
    assert manifest["seed"] == seed
    assert manifest["config_hash"] == cli._config_hash(argv[0], inputs, flags)
    usage = runner.invoke(main, [argv[0], "--help"]).output
    assert all(option in usage for option in ("--format", "--out", "--quiet"))


def _market_with(**diversion):
    doc = json.loads(Path(MARKET).read_text())
    doc["diversion"].update(diversion)
    return doc


def _ghost_market():
    """The Staples market plus a product row under the outside option's id,
    owned by ``Ghost``, with Staples merging with Ghost."""
    doc = json.loads(Path(MARKET).read_text())
    doc["products"].append({"id": "OUTSIDE", "firm": "Ghost", "revenue": 1.0, "margin": 0.5})
    doc["merger"]["firm_b"] = "Ghost"
    return doc


_OUTSIDE_TWICE = _market_with(
    order=["SP", "OD", "OUTSIDE"], outside=[0.35, 0.25],
    matrix=[[-1.0, 0.5996, 0.4004], [0.6915, -1.0, 0.3085], [0.0, 0.0, -1.0]])


def _economy_with(**fields):
    return {**json.loads(Path(ECONOMY).read_text()), **fields}


_GEOGRAPHY = {"store_ids": ["s0"], "nests": {"s0": "a"}, "budgets": [1.0, 1.0],
              "revenues": {"s0": 1.0}}
_RAGGED = [[-1.0, 0.5], [0.5]]
_DESIGN = [[[1.0, 2.0]], [[1.0, 0.5]]]


_FIT_GEOGRAPHY = json.dumps(spatial_fixture_to_dict(fitting.generate_spatial_fixture(
    fitting.SpatialConfig(seed=3, n_tracts=15, n_stores=6))))


def _fit_geography_with(**fields):
    """The fittable geography with whole fields replaced."""
    return {**json.loads(_FIT_GEOGRAPHY), **fields}


def _without_covariates():
    doc = json.loads(_FIT_GEOGRAPHY)
    return {**doc, "design": [[[] for _ in row] for row in doc["design"]]}


def _with_entry(field, index, value):
    """The fittable geography with one entry of ``field`` replaced; for the
    design, a covariate of the first store a tract considers."""
    doc = json.loads(_FIT_GEOGRAPHY)
    if field == "design":
        i, j = next((i, j) for i, row in enumerate(doc["mask"]) for j, m in enumerate(row) if m)
        doc["design"][i][j][1] = value
    else:
        doc[field][index] = value
    return doc


_CONSUMER = {"id": "c", "budget": 1.0, "utilities": {"SP": 0.3, "OD": 0.1}}


def _with_weight(weight):
    """The Staples economy with its one consumer's weight replaced."""
    doc = _economy_with()
    doc["consumers"][0]["weight"] = weight
    return doc


class TestMalformedJsonInput:
    @pytest.mark.parametrize("command", [["validate"], ["second-choice", "--remove", "A"], ["fit"]])
    @pytest.mark.parametrize("content", ["5", "{not json"])
    def test_exits_2_without_traceback(self, runner, tmp_path, command, content):
        path = tmp_path / "doc.json"
        path.write_text(content)
        result = runner.invoke(main, [command[0], str(path), *command[1:]])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("argv, doc", [
        (["validate", "DOC"], _market_with(matrix=_RAGGED)),
        (["guppi", "DOC"], _market_with(matrix=_RAGGED)),
        (["validate", "DOC"], _market_with(order=5)),
        (["simulate", MARKET, "DOC"], _economy_with(eta="abc")),
        (["simulate", MARKET, "DOC"], _economy_with(consumers=[5])),
        (["second-choice", "DOC", "--remove", "SP"], _economy_with(consumers=[5])),
        (["second-choice", "DOC", "--remove", "SP"],
         _economy_with(consumers=[{"id": "c", "budget": 1.0, "utilities": [0.1, 0.2]}])),
        (["fit", "DOC"], {**_GEOGRAPHY, "design": [[[1.0, 2.0]], [[1.0]]]}),
        (["fit", "DOC"], {**_GEOGRAPHY, "design": _DESIGN, "budgets": [1.0, 2.0, 3.0]}),
        (["fit", "DOC"], {**_GEOGRAPHY, "design": _DESIGN, "store_ids": 5}),
        (["fit", "DOC"], {**_GEOGRAPHY, "design": _DESIGN, "truth": 5}),
        (["fit", "DOC"], {**_GEOGRAPHY, "design": _DESIGN, "nests": {}}),
        (["fit", "DOC"], {**_GEOGRAPHY, "design": _DESIGN, "revenues": {}}),
        (["fit", "DOC"], _with_entry("design", None, float("nan"))),
        (["fit", "DOC"], _with_entry("budgets", 2, float("inf"))),
        (["fit", "DOC"], _with_entry("budgets", 2, -1.0)),
        (["fit", "DOC"], _with_entry("weights", 0, float("nan"))),
        (["fit", "DOC"], _with_entry("revenues", "s1", float("nan"))),
        (["fit", "DOC"], _without_covariates()),
        (["fit", "DOC"], _fit_geography_with(budgets=[0.0] * 15)),
        (["fit", "DOC"], _fit_geography_with(weights=[0.0] * 15)),
        (["fit", "DOC"], _with_entry("budgets", 0, 1e308)),
        (["fit", "DOC"], _with_entry("weights", 0, 1e300)),
        (["fit", "DOC"], _with_entry("revenues", "s1", 1e308)),
        (["fit", "DOC"], _fit_geography_with(store_ids=["s0", "s1", "s2", "s3", "s4", "s4"])),
        (["simulate", MARKET, "DOC"], _economy_with(consumers=[
            _CONSUMER, {**_CONSUMER, "id": "d", "utilities": {"SP": float("nan"), "OD": 0.1}}])),
        (["second-choice", "DOC", "--remove", "SP"], _economy_with(consumers=[
            {**_CONSUMER, "utilities": {"SP": 0.3, "OD": float("inf")}}])),
        (["second-choice", "DOC", "--remove", "SP"], _economy_with(consumers=[
            {**_CONSUMER, "utilities": {"SP": 0.3, "OD": float("-inf")}}])),
        (["simulate", MARKET, "DOC"], _economy_with(eta=float("inf"))),
        (["simulate", MARKET, "DOC"], _with_weight(1e300)),
        (["second-choice", "DOC", "--remove", "SP"], _with_weight(1e300)),
        (["simulate", MARKET, "DOC"], _economy_with(consumers=[
            {**_CONSUMER, "id": cid, "budget": 1e308} for cid in "cd"])),
        (["validate", "DOC"], _ghost_market()),
        (["guppi", "DOC"], _ghost_market()),
        (["validate", "DOC"], _OUTSIDE_TWICE),
    ], ids=["ragged-validate", "ragged-guppi", "order-int", "eta-text", "consumer-int-simulate",
            "consumer-int-second-choice", "utilities-list", "design-ragged", "budgets-length",
            "store-ids-int", "truth-int", "nest-missing", "revenue-missing",
            "fit-design-nan", "fit-budget-inf", "fit-budget-negative", "fit-weight-nan",
            "fit-revenue-nan", "fit-no-covariate", "fit-budgets-zero", "fit-weights-zero",
            "fit-budget-overflow", "fit-weight-overflow", "fit-revenue-overflow",
            "fit-duplicate-store-id", "simulate-utility-nan", "second-choice-utility-inf",
            "second-choice-utility-minus-inf", "simulate-eta-inf", "simulate-weight-overflow",
            "second-choice-weight-overflow", "simulate-total-overflow", "ghost-validate",
            "ghost-guppi", "outside-twice"])
    def test_malformed_field_exits_2(self, runner, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [str(path) if a == "DOC" else a for a in argv])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output


def test_cli_import_leaves_scipy_out():
    """No uppkit code imports scipy: not the CLI, and not ``uppkit fit``,
    whose Levenberg-Marquardt is uppkit's own."""
    no_scipy = "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    fit = ("from uppkit.cli import main\ntry:\n    main(['fit', '--synthetic-seed', '1', "
           "'--tracts', '20', '--stores', '8', '--format', 'json'])\n"
           "except SystemExit as end:\n    assert not end.code\n")
    for code in ("import uppkit.cli\n", fit):
        *doc, flag = run_python("import sys\n" + code + no_scipy).splitlines()
        assert flag == "False"
    assert json.loads("\n".join(doc))["result"]["converged"]


SIMULATOR_AND_UP = {"ces", "simulation", "newton", "passthrough", "fitting", "harness"}


@pytest.mark.parametrize("argvs, unloaded", [
    ([["guppi", MARKET], ["cmcr", MARKET], ["validate", MARKET],
      ["welfare", MARKET, "--passthrough", "identity"]], SIMULATOR_AND_UP),
    # the Staples file configures CES pass-through, so its file mode is the third command
    ([["simulate", MARKET, ECONOMY], ["passthrough", MARKET], ["welfare", MARKET]],
     {"fitting", "harness"}),
], ids=["screens", "simulators"])
def test_each_command_loads_only_what_it_runs(argvs, unloaded):
    """One interpreter runs the commands in turn and lists uppkit's loaded
    modules after each; the lists only grow, so each holds for every command
    before it too."""
    code = ("import sys\nfrom uppkit.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    try:\n        main(argv)\n    except SystemExit as end:\n        assert not end.code\n"
            "    print('loaded:', *sorted(m for m in sys.modules if m.startswith('uppkit.')))\n")
    loaded = [line.split()[1:] for line in run_python(code).splitlines() if line.startswith("loaded:")]
    assert len(loaded) == len(argvs)
    for argv, modules in zip(argvs, loaded):
        assert not {f"uppkit.{m}" for m in unloaded} & set(modules), (argv, modules)


def test_bare_import_loads_no_uppkit_module():
    assert run_python("import sys\nimport uppkit\n"
                   "print([m for m in sys.modules if m.startswith('uppkit.')])") == "[]\n"
