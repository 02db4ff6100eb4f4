"""Market data model: ingestion and validation."""

import json

import numpy as np
import pytest

from uppkit import market as mk
from uppkit.errors import InputValidationError


def write_json(tmp_path, doc, name="market.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc(**overrides):
    doc = {
        "products": [
            {"id": "A", "firm": "f1", "revenue": 100.0, "margin": 0.3},
            {"id": "B", "firm": "f2", "revenue": 50.0, "margin": 0.25},
        ],
        "diversion": {"order": ["A", "B"], "matrix": [[-1.0, 0.4], [0.5, -1.0]]},
        "merger": {"firm_a": "f1", "firm_b": "f2"},
    }
    doc.update(overrides)
    return doc


class TestLoading:
    def test_staples_fixture_margins(self, staples_bundle):
        """Bundled fixture carries m = (0.258, 0.234)."""
        margins = {p.id: p.margin for p in staples_bundle.market.products}
        assert margins["SP"] == 0.258
        assert margins["OD"] == 0.234
        assert staples_bundle.merger.passthrough_mode == "ces"

    def test_empty_product_list(self, tmp_path):
        path = write_json(tmp_path, minimal_doc(products=[]))
        with pytest.raises(InputValidationError, match="no products"):
            mk.load_market(path)

    def test_margin_out_of_range_names_product(self, tmp_path):
        doc = minimal_doc()
        doc["products"][1]["margin"] = 1.2
        path = write_json(tmp_path, doc)
        with pytest.raises(InputValidationError, match="B"):
            mk.load_market(path)

    def test_bad_diagonal(self, tmp_path):
        doc = minimal_doc()
        doc["diversion"]["matrix"][0][0] = 0.0
        path = write_json(tmp_path, doc)
        with pytest.raises(InputValidationError, match="self-diversion"):
            mk.load_market(path)

    def test_unknown_firm_reference(self, tmp_path):
        doc = minimal_doc()
        doc["merger"]["firm_b"] = "nope"
        path = write_json(tmp_path, doc)
        with pytest.raises(InputValidationError, match="unknown firm"):
            mk.load_market(path)

    def test_missing_field_names_row(self, tmp_path):
        doc = minimal_doc()
        del doc["products"][1]["margin"]
        path = write_json(tmp_path, doc)
        with pytest.raises(InputValidationError, match=r"products\[1\].*margin"):
            mk.load_market(path)

    def test_non_numeric_field(self, tmp_path):
        doc = minimal_doc()
        doc["products"][0]["revenue"] = "lots"
        path = write_json(tmp_path, doc)
        with pytest.raises(InputValidationError, match="revenue"):
            mk.load_market(path)

    def test_outside_in_order_becomes_column(self, tmp_path):
        doc = minimal_doc()
        doc["diversion"] = {
            "order": ["A", "B", "OUTSIDE"],
            "matrix": [
                [-1.0, 0.4, 0.6],
                [0.5, -1.0, 0.5],
                [0.0, 0.0, -1.0],
            ],
        }
        bundle = mk.load_market(write_json(tmp_path, doc))
        assert bundle.diversion.order == ("A", "B")
        assert bundle.diversion.get("A", mk.OUTSIDE) == 0.6
        assert bundle.diversion.get("B", "A") == 0.5

    def test_outside_column_given_twice(self, tmp_path):
        """An ``OUTSIDE`` entry of ``order`` and an ``outside`` list both give
        the outside column; one of them would be dropped, so the file is refused."""
        doc = minimal_doc()
        doc["diversion"] = {"order": ["A", "B", "OUTSIDE"],
                            "matrix": [[-1.0, 0.4, 0.6], [0.5, -1.0, 0.5], [0.0, 0.0, -1.0]],
                            "outside": [0.35, 0.25]}
        with pytest.raises(InputValidationError, match="diversion.outside"):
            mk.load_market(write_json(tmp_path, doc))

    def test_explicit_passthrough_matrix(self, tmp_path):
        doc = minimal_doc()
        doc["merger"]["passthrough"] = {"matrix": [[1.0, 0.2], [0.3, 1.1]]}
        bundle = mk.load_market(write_json(tmp_path, doc))
        assert bundle.merger.passthrough_mode == "matrix"
        np.testing.assert_array_equal(bundle.merger.passthrough,
                                      [[1.0, 0.2], [0.3, 1.1]])
        # and it drives the price effects end to end
        from uppkit import effects

        report = effects.effects_report(bundle.market, bundle.diversion, bundle.merger)
        assert report.passthrough_mode == "matrix"
        g = report.guppi
        assert report.price_changes["A"] == pytest.approx(1.0 * g["A"] + 0.2 * g["B"])

    def test_csv_roundtrip(self, tmp_path):
        (tmp_path / "products.csv").write_text(
            "id,firm,revenue,margin\nA,f1,100,0.3\nB,f2,50,0.25\n"
        )
        (tmp_path / "diversion.csv").write_text(
            "from,to,value\nA,B,0.4\nB,A,0.5\nA,OUTSIDE,0.6\n"
        )
        bundle = mk.load_market(tmp_path)
        assert {p.id: p.margin for p in bundle.market.products} == {"A": 0.3, "B": 0.25}
        assert bundle.diversion.get("A", "B") == 0.4
        assert bundle.diversion.get("A", mk.OUTSIDE) == 0.6

    def test_csv_outside_product_row_is_one_finding(self, tmp_path):
        """The row keeps its -1 self-diversion and ``to OUTSIDE`` fills the
        outside column, so ``reserved-id`` is the only finding."""
        (tmp_path / "products.csv").write_text(
            "id,firm,revenue,margin\nA,f1,100,0.3\nOUTSIDE,f2,1,0.5\n")
        (tmp_path / "diversion.csv").write_text("from,to,value\nA,OUTSIDE,0.6\n")
        with pytest.raises(InputValidationError) as raised:
            mk.load_market(tmp_path)
        assert str(raised.value) == ("[reserved-id] OUTSIDE: the outside option is a "
                                     "diversion destination, not a product")

    @pytest.mark.parametrize("products, diversion, where", [
        ("id,firm,revenue\nA,f1,100\n", "from,to,value\n", "products.csv"),
        ("id,firm,revenue,margin\nA,f1,100,0.3\n", "from,to\nA,OUTSIDE\n", "diversion.csv"),
    ], ids=["product-margin", "diversion-value"])
    def test_csv_missing_field(self, tmp_path, products, diversion, where):
        (tmp_path / "products.csv").write_text(products)
        (tmp_path / "diversion.csv").write_text(diversion)
        with pytest.raises(InputValidationError, match=f"{where}.*missing field"):
            mk.load_market(tmp_path)

    def test_csv_unknown_product(self, tmp_path):
        (tmp_path / "products.csv").write_text("id,firm,revenue,margin\nA,f1,100,0.3\n")
        (tmp_path / "diversion.csv").write_text("from,to,value\nZ,A,0.4\n")
        with pytest.raises(InputValidationError, match="Z"):
            mk.load_market(tmp_path)


class TestLookups:
    def test_unknown_product(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3),))
        with pytest.raises(KeyError, match="unknown product 'Z'"):
            m.product("Z")

    def test_diversion_without_outside_column(self):
        d = mk.DiversionMatrix(("A", "B"), np.array([[-1.0, 0.4], [0.5, -1.0]]))
        with pytest.raises(KeyError, match="no outside column"):
            d.get("A", mk.OUTSIDE)

    def test_document_must_be_an_object(self):
        with pytest.raises(InputValidationError, match="doc: top-level JSON must be an object"):
            mk.market_bundle_from_dict([], where="doc")


class TestValidate:
    def test_valid_two_firm_market(self, staples_bundle):
        assert mk.validate(staples_bundle.market, staples_bundle.diversion,
                           staples_bundle.merger) == []

    def test_negative_offdiagonal(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product("B", "f2", 1.0, 0.3)))
        d = mk.DiversionMatrix(("A", "B"), np.array([[-1.0, -0.1], [0.2, -1.0]]))
        findings = mk.validate(m, d)
        assert any(v.rule == "negative-diversion" for v in findings)

    def test_zero_diagonal(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product("B", "f2", 1.0, 0.3)))
        d = mk.DiversionMatrix(("A", "B"), np.array([[0.0, 0.1], [0.2, -1.0]]))
        findings = mk.validate(m, d)
        assert any(v.rule == "self-diversion" and v.subject == "A" for v in findings)

    def test_total_on_malformed_input(self):
        """validate returns findings, never raises, on absurd-but-parseable data."""
        m = mk.Market((
            mk.Product("", "f1", -5.0, 7.0),
            mk.Product("A", "", float("nan"), 0.5),
            mk.Product("A", "f2", 1.0, 0.5),
        ))
        d = mk.DiversionMatrix(("A",), np.array([[-1.0]]), outside=np.array([2.0]))
        findings = mk.validate(m, d, mk.MergerSpec("f1", "f1", {"A": 0.5}))
        rules = {v.rule for v in findings}
        assert {"empty-id", "duplicate-id", "margin-range", "revenue-negative",
                "merger-same-firm", "efficiency-range"} <= rules

    def test_row_sum_with_outside(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product("B", "f2", 1.0, 0.3)))
        d = mk.DiversionMatrix(("A", "B"), np.array([[-1.0, 0.7], [0.2, -1.0]]),
                               outside=np.array([0.5, 0.1]))
        findings = mk.validate(m, d)
        assert any(v.rule == "row-sum" and v.subject == "A" for v in findings)
        assert not any(v.subject == "B" and v.rule == "row-sum" for v in findings)

    def test_outside_product_is_a_finding(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product(mk.OUTSIDE, "f2", 1.0, 0.3)))
        findings = mk.validate(m, mk.DiversionMatrix(("A",), np.array([[-1.0]])),
                               mk.MergerSpec("f1", "f2"))
        assert [v.rule for v in findings] == ["reserved-id", "diversion-order"]

    def test_efficiency_for_nonparty_product(self):
        m = mk.Market((
            mk.Product("A", "f1", 1.0, 0.3),
            mk.Product("B", "f2", 1.0, 0.3),
            mk.Product("C", "f3", 1.0, 0.3),
        ))
        spec = mk.MergerSpec("f1", "f2", {"C": -0.1})
        findings = mk.validate(m, None, spec)
        assert any(v.rule == "efficiency-nonparty" for v in findings)

    def test_no_products(self):
        assert [v.rule for v in mk.validate(mk.Market(()))] == ["no-products"]

    def test_diversion_shape_mismatch(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product("B", "f2", 1.0, 0.3)))
        findings = mk.validate(m, mk.DiversionMatrix(("A", "B"), -np.eye(3)))
        assert [v.rule for v in findings] == ["diversion-shape"]

    def test_explicit_passthrough_not_finite(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product("B", "f2", 1.0, 0.3)))
        spec = mk.MergerSpec("f1", "f2", passthrough=np.array([[1.0, np.inf], [0.0, 1.0]]))
        assert [v.rule for v in mk.validate(m, None, spec)] == ["passthrough-finite"]

    def test_explicit_passthrough_shape(self):
        m = mk.Market((mk.Product("A", "f1", 1.0, 0.3), mk.Product("B", "f2", 1.0, 0.3)))
        spec = mk.MergerSpec("f1", "f2", passthrough=np.eye(3))
        findings = mk.validate(m, None, spec)
        assert any(v.rule == "passthrough-shape" for v in findings)
