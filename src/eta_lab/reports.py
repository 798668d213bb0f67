"""One serialization layer for all report payloads: text, CSV, JSON.

It is the only layer that renders: the engines hand it integers, exact
rationals and RigorousValue enclosures, so one report serializes at any digits.

Each format is rendered only when asked for: text and CSV by the table of
the command, JSON by its document. CSV schemas are frozen; changing a column
set is a breaking version bump. A command's JSON is its payload in
declaration order: the fields of a report dataclass (scan, audit, each
density report), or the keys of the dict that `cli` builds already in the
JSON's shape (densities, sigma, verify, eta). So reordering or renaming a
field changes the schema just as a CSV column does; the audit CSV columns are
its fields too. `constants` and `qexp` are the two exceptions: their JSON
holds values rendered here, each constant's decimal and float width and the
coefficients as strings.
CSV is ASCII with comma separators, a header row and LF newlines; envelope
metadata rides along as leading '#' comment lines. JSON carries every exact
rational as decimal strings of numerator and denominator, in full at any
length: the int-to-str guard of Python 3.11 is lifted for each long one.
With timestamps suppressed, identical configs serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import ceil, floor

from . import __version__
from .constants import RigorousValue, format_fixed, format_sci, render_decimal
from .newform import QExpansion

__all__ = [
    "ReportEnvelope",
    "build_envelope",
    "serialize",
    "PairScanReport",
    "MismatchExample",
    "AuditReport",
    "DensityRow",
    "DensityReport",
    "CountReport",
    "AverageReport",
]

SCAN_CSV_HEADER = (
    "x,pairs_total,pairs_excluded,sum_eta,avg_eta,ref_theta,ref_combined,"
    "ref_Theta,delta_theta,delta_combined,delta_Theta"
)
_SCAN_REFS = ("theta", "combined", "Theta")


# ---------------------------------------------------------------------------
# Report types: the results of the experiments engines. They live next to
# their serializers, so that rendering a report loads no numpy.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairScanReport:
    x: int
    pairs_total: int
    pairs_excluded: int          # pairs with D2 = 1 (eta undefined: sign never -1)
    sum_eta: int
    avg_eta: Fraction
    refs: dict[str, RigorousValue]  # reference enclosures
    deltas: dict[str, Fraction]     # avg_eta - reference midpoint


@dataclass(frozen=True)
class MismatchExample:
    d1: int
    d2: int
    eta: int
    n_d1: int


@dataclass(frozen=True)
class AuditReport:
    x: int
    pairs_total: int
    pairs_excluded: int
    lhs_sum_eta: int
    rhs_sum_n_d2: int            # sum n(D2) over all included pairs
    rhs_hit_sum_n_d1: int        # sum n(D1) over pairs with eta | D2
    rhs_hit_sum_n_d2: int        # sum n(D2) over pairs with eta | D2
    difference: int              # lhs - (rhs_sum_n_d2 + rhs_hit_sum_n_d1 - rhs_hit_sum_n_d2)
    hit_pairs: int               # pairs with eta | D2
    nondivisor_violations: int   # pairs with eta not | D2 and eta != n(D2); expect 0
    mismatch_count: int          # pairs with eta | D2 and eta != n(D1)
    mismatch_examples: list[MismatchExample]


@dataclass(frozen=True)
class DensityRow:
    label: str
    count: int
    total: int
    observed: Fraction
    predicted: Fraction
    relative_error: Fraction


@dataclass(frozen=True, kw_only=True)
class DensityReport:
    kind: str
    x: int
    excluded: int = 0
    warnings: list[str] = field(default_factory=list)
    rows: list[DensityRow]


@dataclass(frozen=True)
class CountReport:
    x: int
    observed: int
    reference: float
    ratio: float


@dataclass(frozen=True)
class AverageReport:
    x: int
    kind: str
    total: int
    count: int
    average: Fraction
    reference: RigorousValue     # enclosure of the limit
    delta: Fraction              # average - enclosure midpoint


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportEnvelope:
    tool: str
    version: str
    command: str
    config: dict
    timestamp: str | None
    payload: object


def build_envelope(command: str, config: dict, payload, no_timestamp: bool) -> ReportEnvelope:
    ts = None if no_timestamp else datetime.now(timezone.utc).isoformat(timespec="seconds")
    return ReportEnvelope(
        tool="eta-lab",
        version=__version__,
        command=command,
        config=config,
        timestamp=ts,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Exact rationals in JSON
# ---------------------------------------------------------------------------

def _int_json(n: int) -> str:
    """Decimal string of n, whatever its length."""
    digits = int(n.bit_length() * 0.30103) + 1
    if digits > 4000:
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(digits + 100)
            return str(n)
        finally:
            sys.set_int_max_str_digits(old)
    return str(n)


def _frac_json(q: Fraction) -> dict:
    return {"num": _int_json(q.numerator), "den": _int_json(q.denominator)}


def _exact_json(value, digits: int):
    """The JSON of a report value: a dataclass is its fields in declaration
    order, a Fraction its numerator and denominator, a RigorousValue its
    decimal at `digits` places; dicts and lists map element by element."""
    if isinstance(value, Fraction):
        return _frac_json(value)
    if isinstance(value, RigorousValue):
        return render_decimal(value, digits)
    if is_dataclass(value):
        return {f.name: _exact_json(getattr(value, f.name), digits) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _exact_json(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact_json(v, digits) for v in value]
    return value


def _constants_json(values: list[RigorousValue], digits: int) -> dict:
    return {
        "constants": [
            {
                "name": rv.name,
                "k_terms": rv.k_terms,
                "lo": _frac_json(rv.lo),
                "hi": _frac_json(rv.hi),
                "rendered": render_decimal(rv, digits),
                "width_float": float(rv.hi - rv.lo),
            }
            for rv in values
        ]
    }


def _qexp_json(payload: dict, digits: int) -> dict:
    q: QExpansion = payload["expansion"]
    return {
        "d1": payload["d1"],
        "d2": payload["d2"],
        "k": q.weight,
        "constant_term": _frac_json(q.constant_term),
        "coefficients": [str(a) for a in q.coefficients],
    }


# the two commands whose JSON is not their payload (see the module docstring)
_DOCUMENTS = {"constants": _constants_json, "qexp": _qexp_json}


# ---------------------------------------------------------------------------
# Per-command tables for text and CSV: (csv_header, csv_rows, text_lines)
# ---------------------------------------------------------------------------

def _scan_table(r: PairScanReport, digits: int):
    refs = {name: render_decimal(rv, digits) for name, rv in r.refs.items()}
    avg = format_fixed(r.avg_eta, digits)
    deltas = {name: format_fixed(d, digits, plus=True) for name, d in r.deltas.items()}
    row = [r.x, r.pairs_total, r.pairs_excluded, r.sum_eta, avg]
    row += [refs[name] for name in _SCAN_REFS] + [deltas[name] for name in _SCAN_REFS]
    text = [
        f"pair scan, |D1*D2| <= {r.x}",
        f"  ordered pairs        {r.pairs_total}",
        f"  excluded (D2 = 1)    {r.pairs_excluded}",
        f"  sum eta              {r.sum_eta}",
        f"  average eta          {avg}",
        f"  vs theta             {refs['theta']}  (delta {deltas['theta']})",
        f"  vs Theta*(1-beta)+alpha  {refs['combined']}  (delta {deltas['combined']})",
        f"  vs Theta             {refs['Theta']}  (delta {deltas['Theta']})",
    ]
    return SCAN_CSV_HEADER.split(","), [row], text


def _audit_table(r: AuditReport, digits: int):
    header = [f.name for f in fields(AuditReport)]
    # the examples are the last field, packed into one cell
    packed = ";".join(f"{m.d1}:{m.d2}:{m.eta}:{m.n_d1}" for m in r.mismatch_examples)
    row = [getattr(r, name) for name in header[:-1]] + [packed]
    text = [
        f"decomposition audit, |D1*D2| <= {r.x} (D2 = 1 excluded: {r.pairs_excluded} pairs)",
        f"  sum eta (lhs)                      {r.lhs_sum_eta}",
        f"  sum n(D2), all pairs               {r.rhs_sum_n_d2}",
        f"  sum n(D1) over eta | D2            {r.rhs_hit_sum_n_d1}",
        f"  sum n(D2) over eta | D2            {r.rhs_hit_sum_n_d2}",
        f"  lhs - (t1 + t2 - t3)               {r.difference}",
        f"  pairs with eta | D2                {r.hit_pairs}",
        f"  eta != n(D2) off the divisor branch {r.nondivisor_violations}",
        f"  eta | D2 with eta != n(D1)         {r.mismatch_count}",
    ]
    for m in r.mismatch_examples:
        text.append(
            f"    (D1, D2) = ({m.d1}, {m.d2}): eta = {m.eta}, n(D1) = {m.n_d1}"
        )
    return header, [row], text


def _density_table(payload: dict, digits: int):
    header = ["kind", "x", "label", "count", "total", "observed", "predicted", "relative_error"]
    rows = []
    text = []
    for rep in payload["reports"]:
        text.append(f"{rep.kind}, |D| or |D1*D2| <= {rep.x}"
                    + (f" (excluded: {rep.excluded})" if rep.excluded else ""))
        for row in rep.rows:
            rows.append(
                [
                    rep.kind,
                    rep.x,
                    row.label,
                    row.count,
                    row.total,
                    format_fixed(row.observed, digits),
                    format_fixed(row.predicted, digits),
                    format_sci(row.relative_error, 6),
                ]
            )
            text.append(
                f"  {row.label:24s} observed {row.count}/{row.total}"
                f" = {format_fixed(row.observed, 8)}"
                f"  predicted {format_fixed(row.predicted, 8)}"
                f"  rel.err {format_sci(row.relative_error, 3)}"
            )
        for w in rep.warnings:
            text.append(f"  warning: {w}")
    return header, rows, text


def _constants_table(values: list[RigorousValue], digits: int):
    header = ["name", "k_terms", "lo", "hi", "value", "width"]
    rows = []
    text = [f"rigorous series constants (k_terms as shown, outward-rounded)"]
    for rv in values:
        rendered = render_decimal(rv, digits)
        wtxt = format_sci(rv.hi - rv.lo, 3)
        lo_s = format_fixed(rv.lo, digits + 2, floor)
        hi_s = format_fixed(rv.hi, digits + 2, ceil)
        rows.append([rv.name, rv.k_terms, lo_s, hi_s, rendered, wtxt])
        text.append(f"  {rv.name:10s} = {rendered}   (width {wtxt}, K = {rv.k_terms})")
    return header, rows, text


def _eta_table(payload: dict, digits: int):
    header = ["d1", "d2", "cap", "status", "eta", "trace"]
    found = payload["status"] == "found"
    packed = ";".join(f"{t['p']}:{t['sign']:+d}" for t in payload["trace"])
    row = [payload[name] for name in header[:4]] + [payload["eta"] if found else "", packed]
    text = [f"eta({payload['d1']}, {payload['d2']}) with cap {payload['cap']}:"]
    for t in payload["trace"]:
        text.append(f"  sign at {t['p']:6d} = {t['sign']:+d}")
    if found:
        text.append(f"  eta = {payload['eta']}")
    elif payload["status"] == "never":
        text.append("  eta = never (D2 = 1: the sign is +1 at every prime)")
    else:
        text.append(f"  cap {payload['cap']} exceeded")
    return header, [row], text


def _sigma_table(payload: dict, digits: int):
    header = ["d1", "d2", "k", "n", "sigma"]
    row = [payload["d1"], payload["d2"], payload["k"], payload["n"], payload["value"]]
    text = [
        f"sigma(D1={payload['d1']}, D2={payload['d2']}, k={payload['k']}, "
        f"n={payload['n']}) = {payload['value']}"
    ]
    return header, [row], text


def _qexp_table(payload: dict, digits: int):
    q: QExpansion = payload["expansion"]
    header = ["d1", "d2", "k", "terms", "constant_term", "coefficients"]
    const = f"{q.constant_term.numerator}/{q.constant_term.denominator}"
    row = [
        payload["d1"],
        payload["d2"],
        q.weight,
        len(q.coefficients),
        const,
        ";".join(str(a) for a in q.coefficients),
    ]
    text = [
        f"q-expansion: D1={payload['d1']}, D2={payload['d2']}, weight {q.weight}",
        f"  constant term = {const}",
        f"  a_1..a_{len(q.coefficients)} = {', '.join(str(a) for a in q.coefficients)}",
    ]
    return header, [row], text


def _verify_table(payload: dict, digits: int):
    header = ["id", "name", "status", "seconds", "detail"]
    rows = []
    text = []
    for c in payload["criteria"]:
        rows.append([c["id"], c["name"], c["status"], f"{c['seconds']:.2f}", c["detail"]])
        text.append(f"[{c['status'].upper():4s}] {c['id']:>2} {c['name']}: {c['detail']}")
    statuses = [c["status"] for c in payload["criteria"]]
    text.append(f"{statuses.count('pass')} passed, {statuses.count('fail')} failed")
    return header, rows, text


# the table that renders each command's payload as text and CSV
_TABLES = {
    "constants": _constants_table,
    "eta": _eta_table,
    "sigma": _sigma_table,
    "qexp": _qexp_table,
    "scan": _scan_table,
    "densities": _density_table,
    "audit": _audit_table,
    "verify": _verify_table,
}


def serialize(env: ReportEnvelope, fmt: str, digits: int = 12) -> str:
    """Render an envelope to 'text' or 'csv' by the table of its command, or
    to 'json' by its document; only the format asked for is rendered."""
    if fmt not in ("text", "csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if env.command not in _TABLES:
        raise ValueError(f"no renderer for command {env.command!r}")
    if fmt == "json":
        doc = {
            "tool": env.tool,
            "version": env.version,
            "command": env.command,
            "config": env.config,
        }
        if env.timestamp is not None:
            doc["timestamp"] = env.timestamp
        doc["payload"] = _DOCUMENTS.get(env.command, _exact_json)(env.payload, digits)
        return json.dumps(doc, indent=2, ensure_ascii=True, sort_keys=False) + "\n"
    header, rows, text = _TABLES[env.command](env.payload, digits)
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(f"# {env.tool} {env.version} {env.command}\n")
        cfg = ",".join(f"{k}={v}" for k, v in env.config.items())
        buf.write(f"# config: {cfg}\n")
        if env.timestamp is not None:
            buf.write(f"# timestamp: {env.timestamp}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    head = f"{env.tool} {env.version} | {env.command}"
    if env.timestamp is not None:
        head += f" | {env.timestamp}"
    return "\n".join([head, *text]) + "\n"
