"""One serialization layer for all report payloads: text, CSV, JSON.

It is the only layer that renders: the engines hand it integers, exact
rationals and RigorousValue enclosures, so one report serializes at any digits.

CSV schemas are frozen; changing a column set is a breaking version bump.
The scan, audit and density JSON and the audit CSV columns are the fields of
their report dataclasses, in declaration order, so reordering or renaming a
field changes the schema just as a CSV column does.
CSV is ASCII with comma separators, a header row and LF newlines; envelope
metadata rides along as leading '#' comment lines. JSON carries every exact
rational as decimal strings of numerator and denominator; oversized
integers (beyond ~50000 digits) degrade to a sha256-of-hex digest so the
3.11-era int-to-str guard can never bite. With timestamps suppressed,
identical configs serialize to identical bytes.
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
from .newform import EtaResult, QExpansion

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

_MAX_EXACT_DIGITS = 50_000

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

def _int_json(n: int):
    """Decimal string of n, or a digest object when absurdly large."""
    digits = int(n.bit_length() * 0.30103) + 1
    if digits > _MAX_EXACT_DIGITS:
        # imported here: hashlib loads OpenSSL, a few MiB that no other path needs
        import hashlib

        h = hashlib.sha256(hex(n).encode()).hexdigest()
        return {"sha256_of_hex": h, "bit_length": n.bit_length()}
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


# ---------------------------------------------------------------------------
# Per-payload tables: (csv_header, csv_rows, text_lines, json_dict)
# ---------------------------------------------------------------------------

def _scan_table(r: PairScanReport, digits: int):
    js = _exact_json(r, digits)
    refs = js["refs"]
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
    return SCAN_CSV_HEADER.split(","), [row], text, js


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
    return header, [row], text, _exact_json(r, digits)


def _density_table(reports: list[DensityReport], digits: int):
    header = ["kind", "x", "label", "count", "total", "observed", "predicted", "relative_error"]
    rows = []
    text = []
    for rep in reports:
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
    return header, rows, text, {"reports": _exact_json(reports, digits)}


def _constants_table(values: list[RigorousValue], digits: int):
    header = ["name", "k_terms", "lo", "hi", "value", "width"]
    rows = []
    text = [f"rigorous series constants (k_terms as shown, outward-rounded)"]
    js_rows = []
    for rv in values:
        rendered = render_decimal(rv, digits)
        width = rv.hi - rv.lo
        wtxt = format_sci(width, 3)
        lo_s = format_fixed(rv.lo, digits + 2, floor)
        hi_s = format_fixed(rv.hi, digits + 2, ceil)
        rows.append([rv.name, rv.k_terms, lo_s, hi_s, rendered, wtxt])
        text.append(f"  {rv.name:10s} = {rendered}   (width {wtxt}, K = {rv.k_terms})")
        js_rows.append(
            {
                "name": rv.name,
                "k_terms": rv.k_terms,
                "lo": _frac_json(rv.lo),
                "hi": _frac_json(rv.hi),
                "rendered": rendered,
                "width_float": float(width),
            }
        )
    return header, rows, text, {"constants": js_rows}


def _eta_table(payload: dict, digits: int):
    res: EtaResult = payload["result"]
    trace = payload["trace"]
    header = ["d1", "d2", "cap", "status", "eta", "trace"]
    packed = ";".join(f"{p}:{s:+d}" for p, s in trace)
    row = [
        payload["d1"],
        payload["d2"],
        payload["cap"],
        res.status,
        res.prime if res.is_found else "",
        packed,
    ]
    text = [f"eta({payload['d1']}, {payload['d2']}) with cap {payload['cap']}:"]
    for p, s in trace:
        text.append(f"  sign at {p:6d} = {s:+d}")
    if res.is_found:
        text.append(f"  eta = {res.prime}")
    elif res.status == "never":
        text.append("  eta = never (D2 = 1: the sign is +1 at every prime)")
    else:
        text.append(f"  cap {res.cap} exceeded")
    js = {
        "d1": payload["d1"],
        "d2": payload["d2"],
        "cap": payload["cap"],
        "status": res.status,
        "eta": res.prime,
        "trace": [{"p": p, "sign": s} for p, s in trace],
    }
    return header, [row], text, js


def _sigma_table(payload: dict, digits: int):
    header = ["d1", "d2", "k", "n", "sigma"]
    row = [payload["d1"], payload["d2"], payload["k"], payload["n"], payload["value"]]
    text = [
        f"sigma(D1={payload['d1']}, D2={payload['d2']}, k={payload['k']}, "
        f"n={payload['n']}) = {payload['value']}"
    ]
    js = dict(payload)
    return header, [row], text, js


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
    js = {
        "d1": payload["d1"],
        "d2": payload["d2"],
        "k": q.weight,
        "constant_term": _frac_json(q.constant_term),
        "coefficients": [str(a) for a in q.coefficients],
    }
    return header, [row], text, js


def _verify_table(payload: dict, digits: int):
    header = ["id", "name", "status", "seconds", "detail"]
    rows = []
    text = []
    for c in payload["criteria"]:
        rows.append([c["id"], c["name"], c["status"], f"{c['seconds']:.2f}", c["detail"]])
        text.append(f"[{c['status'].upper():4s}] {c['id']:>2} {c['name']}: {c['detail']}")
    npass = sum(1 for c in payload["criteria"] if c["status"] == "pass")
    nfail = sum(1 for c in payload["criteria"] if c["status"] == "fail")
    nskip = sum(1 for c in payload["criteria"] if c["status"] == "skip")
    text.append(f"{npass} passed, {nfail} failed, {nskip} skipped")
    return header, rows, text, payload


def _dispatch(payload, digits: int):
    if isinstance(payload, PairScanReport):
        return _scan_table(payload, digits)
    if isinstance(payload, AuditReport):
        return _audit_table(payload, digits)
    if isinstance(payload, list) and payload and isinstance(payload[0], DensityReport):
        return _density_table(payload, digits)
    if isinstance(payload, dict):
        kind = payload.get("kind")
        if kind == "constants":
            return _constants_table(payload["values"], digits)
        if kind == "eta":
            return _eta_table(payload, digits)
        if kind == "sigma":
            return _sigma_table(payload, digits)
        if kind == "qexp":
            return _qexp_table(payload, digits)
        if kind == "verify":
            return _verify_table(payload, digits)
    raise TypeError(f"no serializer for payload {type(payload)!r}")


def serialize(env: ReportEnvelope, fmt: str, digits: int = 12) -> str:
    """Render an envelope to 'text', 'csv' or 'json'."""
    header, rows, text, js = _dispatch(env.payload, digits)
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
    if fmt == "json":
        doc = {
            "tool": env.tool,
            "version": env.version,
            "command": env.command,
            "config": env.config,
        }
        if env.timestamp is not None:
            doc["timestamp"] = env.timestamp
        doc["payload"] = js
        return json.dumps(doc, indent=2, ensure_ascii=True, sort_keys=False) + "\n"
    if fmt == "text":
        head = f"{env.tool} {env.version} | {env.command}"
        if env.timestamp is not None:
            head += f" | {env.timestamp}"
        lines = [head] + text
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
