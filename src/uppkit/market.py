"""Observed-data market model: products, revenues, margins, ownership,
revenue diversion matrices, and merger specifications.

Markets here deliberately carry no prices or quantities; substitutability
enters only through the revenue diversion matrix.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputValidationError

#: Reserved product id for the outside option. It never carries a margin or
#: revenue and only ever appears as a diversion *destination*.
OUTSIDE = "OUTSIDE"


@dataclass(frozen=True)
class Product:
    """One product row: opaque id, owning firm, revenue R_j >= 0, margin m_j in (0,1)."""

    id: str
    firm: str
    revenue: float
    margin: float


@dataclass(frozen=True)
class Market:
    """A market observed through revenues and relative margins.

    Ownership is implied by each product's ``firm`` field; the firm set
    partitions the products. ``currency`` is an opaque unit tag carried
    through to reports (no conversion logic).
    """

    products: tuple[Product, ...]
    currency: str = "USD"

    def __post_init__(self):
        object.__setattr__(self, "_index", {p.id: i for i, p in enumerate(self.products)})

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.products)

    @property
    def firms(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for p in self.products:
            seen.setdefault(p.firm, None)
        return tuple(seen)

    def product(self, product_id: str) -> Product:
        try:
            return self.products[self._index[product_id]]
        except KeyError:
            raise KeyError(f"unknown product {product_id!r}") from None

    def products_of(self, firm: str) -> tuple[Product, ...]:
        return tuple(p for p in self.products if p.firm == firm)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DiversionMatrix:
    """Pairwise revenue diversion ratios D_{j->k} aligned to ``order``.

    The diagonal holds the self-pair convention of exactly -1; off-diagonal
    entries are non-negative fractions. ``outside`` optionally holds the
    destination-only column of diversion to the outside option.
    """

    order: tuple[str, ...]
    values: np.ndarray
    outside: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.outside is not None:
            object.__setattr__(self, "outside", _readonly(self.outside))
        object.__setattr__(self, "_pos", {pid: i for i, pid in enumerate(self.order)})

    def get(self, src: str, dst: str) -> float:
        if dst == OUTSIDE:
            if self.outside is None:
                raise KeyError("diversion matrix has no outside column")
            return float(self.outside[self._pos[src]])
        return float(self.values[self._pos[src], self._pos[dst]])


def co_ownership(owners: Sequence) -> np.ndarray:
    """Boolean [j, l]: products j != l have the same entry in ``owners``."""
    owners = np.asarray(owners)
    return (owners[:, None] == owners) & ~np.eye(len(owners), dtype=bool)


@dataclass(frozen=True)
class MergerSpec:
    """Two merging firms, their per-product efficiency ratios, and how GUPPIs
    translate to price effects.

    ``efficiencies`` maps product id -> percentage marginal-cost change in
    (-1, 0] (0 = no credit). ``passthrough`` is one of ``"identity"``,
    ``"ces"``, or an explicit square matrix aligned to the merging firms'
    products in market order.
    """

    firm_a: str
    firm_b: str
    efficiencies: Mapping[str, float] = field(default_factory=dict)
    passthrough: str | np.ndarray = "identity"

    def __post_init__(self):
        object.__setattr__(self, "efficiencies", dict(self.efficiencies))
        if not isinstance(self.passthrough, str):
            object.__setattr__(self, "passthrough", _readonly(self.passthrough))

    @property
    def passthrough_mode(self) -> str:
        return self.passthrough if isinstance(self.passthrough, str) else "matrix"

    def efficiency(self, product_id: str) -> float:
        return float(self.efficiencies.get(product_id, 0.0))


@dataclass(frozen=True)
class MarketBundle:
    """Everything a screening run needs: market, diversion, optional merger."""

    market: Market
    diversion: DiversionMatrix
    merger: MergerSpec | None = None


@dataclass(frozen=True)
class Violation:
    """One validation finding: the violated rule plus the offending subject."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.subject}: {self.message}"


def validate(
    market: Market,
    diversion: DiversionMatrix | None = None,
    merger: MergerSpec | None = None,
) -> list[Violation]:
    """Check every data invariant and return the findings (empty means valid).

    Total by design: never raises on malformed-but-parseable input.
    """
    out: list[Violation] = []

    if not market.products:
        out.append(Violation("no-products", "market", "market has no products"))
    seen: set[str] = set()
    for row, p in enumerate(market.products):
        subject = p.id or f"products[{row}]"
        if not p.id:
            out.append(Violation("empty-id", subject, f"product at row {row} has empty id"))
        elif p.id in seen:
            out.append(Violation("duplicate-id", subject, "product id appears more than once"))
        seen.add(p.id)
        if p.id == OUTSIDE:
            continue  # reserved id carries no margin/revenue requirements
        if not p.firm:
            out.append(Violation("empty-firm", subject, "product has empty firm id"))
        if not np.isfinite(p.revenue) or p.revenue < 0:
            out.append(Violation("revenue-negative", subject, f"revenue {p.revenue} must be >= 0"))
        if not np.isfinite(p.margin) or not 0.0 < p.margin < 1.0:
            out.append(Violation("margin-range", subject, f"margin {p.margin} outside (0, 1)"))

    if diversion is not None:
        out.extend(_validate_diversion(market, diversion))
    if merger is not None:
        out.extend(_validate_merger(market, merger))
    return out


def _validate_diversion(market: Market, d: DiversionMatrix) -> list[Violation]:
    out: list[Violation] = []
    n = len(d.order)
    if d.values.shape != (n, n):
        out.append(Violation("diversion-shape", "diversion",
                             f"matrix shape {d.values.shape} does not match order length {n}"))
        return out
    inside = set(pid for pid in market.ids if pid != OUTSIDE)
    if set(d.order) != inside:
        missing = sorted(inside - set(d.order))
        extra = sorted(set(d.order) - inside)
        out.append(Violation("diversion-order", "diversion",
                             f"order mismatch with market products (missing {missing}, unknown {extra})"))
    for i, src in enumerate(d.order):
        if d.values[i, i] != -1.0:
            out.append(Violation("self-diversion", src,
                                 f"self-diversion must be -1, got {d.values[i, i]}"))
        for k, dst in enumerate(d.order):
            if i == k:
                continue
            v = d.values[i, k]
            if not np.isfinite(v) or v < 0:
                out.append(Violation("negative-diversion", f"{src}->{dst}",
                                     f"negative off-diagonal diversion {v}"))
            elif v > 1:
                out.append(Violation("diversion-above-one", f"{src}->{dst}",
                                     f"off-diagonal diversion {v} exceeds 1"))
    if d.outside is not None:
        if d.outside.shape != (n,):
            out.append(Violation("outside-shape", "diversion",
                                 f"outside column length {d.outside.shape} does not match order"))
        else:
            for i, src in enumerate(d.order):
                v = d.outside[i]
                if not np.isfinite(v) or v < 0:
                    out.append(Violation("negative-diversion", f"{src}->{OUTSIDE}",
                                         f"negative diversion to outside {v}"))
            row_sums = d.values.sum(axis=1) + 1.0 + d.outside  # drop the -1 diagonal
            for i, src in enumerate(d.order):
                if row_sums[i] > 1.0 + 1e-9:
                    out.append(Violation("row-sum", src,
                                         f"diversion row sums to {row_sums[i]:.6f} > 1 incl. outside"))
    return out


def _validate_merger(market: Market, m: MergerSpec) -> list[Violation]:
    out: list[Violation] = []
    firms = set(market.firms)
    if m.firm_a == m.firm_b:
        out.append(Violation("merger-same-firm", m.firm_a, "merging firms must differ"))
    for f in (m.firm_a, m.firm_b):
        if f not in firms:
            out.append(Violation("unknown-firm", f, "unknown firm reference in merger"))
    if len(firms) < 2:
        out.append(Violation("single-firm-market", "market",
                             "merger analysis requires at least two firms"))
    merging = {p.id for f in (m.firm_a, m.firm_b) for p in market.products_of(f)}
    for pid, c in m.efficiencies.items():
        if pid not in merging:
            out.append(Violation("efficiency-nonparty", pid,
                                 "efficiency given for a product outside the merging firms"))
        if not np.isfinite(c) or not -1.0 < c <= 0.0:
            out.append(Violation("efficiency-range", pid,
                                 f"efficiency {c} outside (-1, 0]"))
    if isinstance(m.passthrough, str):
        if m.passthrough not in ("identity", "ces"):
            out.append(Violation("passthrough-mode", "merger",
                                 f"unknown passthrough mode {m.passthrough!r}"))
    else:
        k = len(merging)
        if m.passthrough.shape != (k, k):
            out.append(Violation("passthrough-shape", "merger",
                                 f"explicit passthrough must be {k}x{k}, got {m.passthrough.shape}"))
        elif not np.all(np.isfinite(m.passthrough)):
            out.append(Violation("passthrough-finite", "merger",
                                 "explicit passthrough has non-finite entries"))
    return out


def _raise_if_invalid(bundle: MarketBundle) -> MarketBundle:
    findings = validate(bundle.market, bundle.diversion, bundle.merger)
    if findings:
        raise InputValidationError("; ".join(str(v) for v in findings))
    return bundle


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

def load_market(path: str | Path) -> MarketBundle:
    """Load and validate a market (+ diversion, + optional merger) from disk.

    The format comes from the path: a directory or a ``.csv`` file is CSV,
    anything else JSON. For CSV, ``path`` is either a directory holding
    ``products.csv`` and ``diversion.csv`` or the path to ``products.csv``
    itself.

    Raises
    ------
    InputValidationError
        Schema violations (naming the field and row), margins outside (0,1),
        self-diversion != -1, unknown firm references.
    """
    return _raise_if_invalid(_parse_market(path))


def _parse_market(path: str | Path) -> MarketBundle:
    """:func:`load_market` without the data invariants: only the schema is checked."""
    path = Path(path)
    if path.is_dir() or path.suffix.lower() == ".csv":
        return _load_csv(path)
    return market_bundle_from_dict(read_json(path), where=str(path))


def as_float(obj, field_name: str, where: str, ndim: int = 0):
    """``obj`` as a float (``ndim`` 0) or as a float array of ``ndim`` dimensions;
    text, ragged lists and other shapes raise InputValidationError naming the field."""
    try:
        value = float(obj) if ndim == 0 else np.array(obj, dtype=float)
        if np.ndim(value) == ndim:
            return value
    except (TypeError, ValueError):
        pass
    if ndim == 0:
        raise InputValidationError(f"{where}: field {field_name!r} is not a number: {obj!r}")
    raise InputValidationError(f"{where}: field {field_name!r} is not a {ndim}-d array of numbers")


def as_mapping(obj, field_name: str, where: str) -> Mapping:
    """``obj`` itself if it is a JSON object, else InputValidationError."""
    if not isinstance(obj, Mapping):
        raise InputValidationError(f"{where}: field {field_name!r} must be an object")
    return obj


def read_json(path: str | Path) -> dict:
    """Parse a JSON object from a file; unreadable or malformed files and
    non-object documents raise InputValidationError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputValidationError(f"{path}: top-level JSON must be an object")
    return doc


def market_bundle_from_dict(doc: Mapping, where: str = "input") -> MarketBundle:
    """Build a MarketBundle from the canonical JSON document structure."""
    if not isinstance(doc, Mapping):
        raise InputValidationError(f"{where}: top-level JSON must be an object")
    rows = doc.get("products")
    if not isinstance(rows, list) or not rows:
        raise InputValidationError(f"{where}: no products")
    products = []
    for row, rec in enumerate(rows):
        w = f"{where}: products[{row}]"
        if not isinstance(rec, Mapping) or "id" not in rec:
            raise InputValidationError(f"{w}: missing field 'id'")
        pid = str(rec["id"])
        if pid == OUTSIDE:
            products.append(Product(OUTSIDE, str(rec.get("firm", "")),
                                    as_float(rec.get("revenue", 0.0), "revenue", w),
                                    as_float(rec.get("margin", 0.5), "margin", w)))
            continue
        for f in ("firm", "revenue", "margin"):
            if f not in rec:
                raise InputValidationError(f"{w}: missing field {f!r}")
        products.append(Product(pid, str(rec["firm"]),
                                as_float(rec["revenue"], "revenue", w),
                                as_float(rec["margin"], "margin", w)))
    market = Market(tuple(products), currency=str(doc.get("currency", "USD")))

    dv = doc.get("diversion")
    if not isinstance(dv, Mapping) or not isinstance(dv.get("order"), list) or "matrix" not in dv:
        raise InputValidationError(f"{where}: diversion must provide 'order' (a list) and 'matrix'")
    order = [str(x) for x in dv["order"]]
    matrix = as_float(dv["matrix"], "diversion.matrix", where, 2)
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != len(order):
        raise InputValidationError(f"{where}: diversion matrix must be square and match 'order'")
    outside = None
    if OUTSIDE in order:
        k = order.index(OUTSIDE)
        keep = [i for i in range(len(order)) if i != k]
        outside = matrix[keep, k]
        matrix = matrix[np.ix_(keep, keep)]
        order = [order[i] for i in keep]
    if "outside" in dv and dv["outside"] is not None:
        outside = as_float(dv["outside"], "diversion.outside", where, 1)
    diversion = DiversionMatrix(tuple(order), matrix, outside)

    merger = None
    mg = doc.get("merger")
    if mg is not None:
        if not isinstance(mg, Mapping) or "firm_a" not in mg or "firm_b" not in mg:
            raise InputValidationError(f"{where}: merger must provide 'firm_a' and 'firm_b'")
        w = f"{where}: merger"
        eff = {str(k): as_float(v, f"efficiencies[{k}]", w)
               for k, v in as_mapping(mg.get("efficiencies") or {}, "efficiencies", w).items()}
        pt = mg.get("passthrough", "identity")
        if isinstance(pt, Mapping):
            if "matrix" not in pt:
                raise InputValidationError(f"{where}: merger.passthrough object needs 'matrix'")
            pt = as_float(pt["matrix"], "passthrough.matrix", where, 2)
        elif not isinstance(pt, str):
            raise InputValidationError(f"{where}: merger.passthrough must be a mode string or matrix")
        merger = MergerSpec(str(mg["firm_a"]), str(mg["firm_b"]), eff, pt)
    return MarketBundle(market, diversion, merger)


def _read_csv(path: Path) -> list[dict]:
    """The rows of a CSV file, without the fields a short row leaves empty."""
    try:
        with open(path, newline="") as fh:
            return [{k: v for k, v in rec.items() if v is not None} for rec in csv.DictReader(fh)]
    except OSError as exc:
        raise InputValidationError(f"cannot read {path}: {exc}") from exc


def _load_csv(path: Path) -> MarketBundle:
    """The CSV pair as the canonical JSON document: the product rows as they
    are, the ``from,to,value`` rows as its diversion matrix."""
    if path.is_dir():
        prod_path, div_path = path / "products.csv", path / "diversion.csv"
    else:
        prod_path, div_path = path, path.with_name("diversion.csv")
    products, rows = _read_csv(prod_path), _read_csv(div_path)
    order = [rec.get("id") for rec in products if rec.get("id") != OUTSIDE]
    pos = {pid: i for i, pid in enumerate([*order, OUTSIDE])}
    matrix = np.pad(-np.eye(len(order)), (0, 1))  # OUTSIDE's row and column last
    for row, rec in enumerate(rows):
        w = f"{div_path}: row {row + 1}"
        for f in ("from", "to", "value"):
            if f not in rec:
                raise InputValidationError(f"{w}: missing field {f!r}")
        for f, known in (("from", order), ("to", pos)):
            if rec[f] not in known:
                raise InputValidationError(f"{w}: unknown product {rec[f]!r} in {f!r}")
        matrix[pos[rec["from"]], pos[rec["to"]]] = as_float(rec["value"], "value", w)
    n = len(order) + any(rec["to"] == OUTSIDE for rec in rows)  # OUTSIDE last if named
    return market_bundle_from_dict({"products": products, "diversion": {
        "order": [*order, OUTSIDE][:n], "matrix": matrix[:n, :n]}}, where=str(prod_path))
