"""Canonical serialization, display emitters, caching, and golden data.

The JSON form of a polynomial is

    {"rank": n, "weight": [...], "terms": [{"mono": [...],
        "num": ["p/q", ...], "den": ["p/q", ...]}, ...]}

with terms sorted by graded-lex monomial order and coefficient arrays in
ascending powers of the coupling; identical values always serialize to
identical bytes.  Text and LaTeX emitters order terms leading-first so the
output reads like the usual tables for this polynomial family.
"""
from __future__ import annotations

import json
import os
import threading
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .scalars import KappaPolynomial, KappaRational
from .symfun import Weight, ZPolynomial, dominance_key, grlex_key

CACHE_VERSION = 1


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def _poly_strings(p: KappaPolynomial) -> list[str]:
    return [str(f) for f in p.coeffs]


def kr_to_arrays(c: KappaRational) -> tuple[list[str], list[str]]:
    """Numerator and denominator coefficient arrays, ascending powers."""
    return _poly_strings(c.num), _poly_strings(c.den)


def kr_from_arrays(num: list[str], den: list[str]) -> KappaRational:
    np = KappaPolynomial([Fraction(s) for s in num])
    dp = KappaPolynomial([Fraction(s) for s in den])
    return KappaRational(np, dp)


def zpoly_to_obj(p: ZPolynomial, weight: Weight) -> dict:
    terms = []
    for w, c in sorted(p.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        num, den = kr_to_arrays(c)
        terms.append({"mono": list(w), "num": num, "den": den})
    return {"rank": p.rank, "weight": list(weight), "terms": terms}


def zpoly_from_obj(obj: dict) -> tuple[Weight, ZPolynomial]:
    rank = obj["rank"]
    weight = tuple(obj["weight"])
    terms = {}
    for t in obj["terms"]:
        terms[tuple(t["mono"])] = kr_from_arrays(t["num"], t["den"])
    return weight, ZPolynomial(rank, terms)


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# display: polynomials in kappa
# ---------------------------------------------------------------------------

def kappa_poly_str(p: KappaPolynomial, symbol: str = "k") -> str:
    """Compact ascending rendering, e.g. '1+3k' or '2-2k+k^2'."""
    if p.is_zero:
        return "0"
    parts = []
    for i, f in enumerate(p.coeffs):
        if f == 0:
            continue
        mag = abs(f)
        if i == 0:
            body = str(mag)
        else:
            var = symbol if i == 1 else f"{symbol}^{i}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(("-" if f < 0 else "") + body)
        else:
            parts.append(("-" if f < 0 else "+") + body)
    return "".join(parts)


def kappa_poly_latex(p: KappaPolynomial) -> str:
    return kappa_poly_str(p, symbol="\\kappa")


def _leading_sign(c: KappaRational) -> int:
    """Display sign: the sign of the lowest-order nonzero coefficient."""
    for f in c.num.coeffs:
        if f:
            return -1 if f < 0 else 1
    return 1


def kr_str(c: KappaRational, symbol: str = "k") -> str:
    """Unsigned textual magnitude; combine with _leading_sign for display."""
    num = c.num
    den = c.den
    nstr = kappa_poly_str(num, symbol)
    if den.degree == 0:
        if num.degree <= 0:
            return nstr  # a plain rational like 4/3, or 0
        return nstr if num_terms(num) == 1 else f"({nstr})"
    if num_terms(num) > 1:
        nstr = f"({nstr})"
    dstr = kappa_poly_str(den, symbol)
    if num_terms(den) > 1 or den.degree >= 1:
        dstr = f"({dstr})"
    return f"{nstr}/{dstr}"


def kr_latex(c: KappaRational) -> str:
    num = c.num
    den = c.den
    if den.degree == 0:
        nstr = kappa_poly_latex(num)
        if num.degree <= 0:  # a plain rational, or 0
            f = num(0)
            if f.denominator != 1:
                return f"\\frac{{{abs(f.numerator)}}}{{{f.denominator}}}"
            return str(abs(f.numerator))
        return nstr if num_terms(num) == 1 else f"({nstr})"
    return f"\\frac{{{kappa_poly_latex(num)}}}{{{kappa_poly_latex(den)}}}"


def num_terms(p: KappaPolynomial) -> int:
    return sum(1 for c in p.coeffs if c)


def _abs_kr(c: KappaRational) -> KappaRational:
    return -c if _leading_sign(c) < 0 else c


# ---------------------------------------------------------------------------
# display: z polynomials
# ---------------------------------------------------------------------------

def _mono_str(w: Weight, latex: bool) -> str:
    parts = []
    for i, e in enumerate(w, start=1):
        if e == 0:
            continue
        var = f"z_{i}" if latex else f"z{i}"
        parts.append(var if e == 1 else f"{var}^{e}")
    return " ".join(parts)


def zpoly_text(p: ZPolynomial, symbol: str = "k") -> str:
    return _zpoly_render(p, latex=False, symbol=symbol)


def zpoly_latex(p: ZPolynomial) -> str:
    return _zpoly_render(p, latex=True, symbol="k")


def _zpoly_render(p: ZPolynomial, latex: bool, symbol: str) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for w, c in p.sorted_terms():
        sign = _leading_sign(c)
        mag = _abs_kr(c)
        mono = _mono_str(w, latex)
        is_one = mag == KappaRational.one()
        if not mono:
            body = kr_latex(mag) if latex else kr_str(mag, symbol)
        elif is_one:
            body = mono
        else:
            cs = kr_latex(mag) if latex else kr_str(mag, symbol)
            body = f"{cs} {mono}"
        if not pieces:
            pieces.append(("-" if sign < 0 else "") + body)
        else:
            pieces.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# display: z-space operators
# ---------------------------------------------------------------------------

def _deriv_str(deriv: Weight, latex: bool) -> str:
    parts = []
    for i, e in enumerate(deriv, start=1):
        if e == 0:
            continue
        if latex:
            parts.append(f"\\partial_{{z_{i}}}" + (f"^{e}" if e > 1 else ""))
        else:
            parts.append(f"d/dz{i}" if e == 1 else f"d{e}/dz{i}^{e}")
    return " ".join(parts) if not latex else "".join(parts)


def _zpoly_content(p: ZPolynomial) -> Fraction:
    from math import gcd, lcm
    num = 0
    den = 1
    for c in p.terms.values():
        for f in c.num.coeffs:
            if f:
                num = gcd(num, f.numerator)
                den = lcm(den, f.denominator)
        for f in c.den.coeffs:
            if f:
                den = lcm(den, f.numerator)  # denominators divide the content
    return Fraction(num, den) if num else Fraction(1)


def operator_term_str(coeff: ZPolynomial, deriv: Weight, latex: bool) -> tuple[int, str]:
    """Signed rendering of one operator term as (sign, 'content (primitive) derivs')."""
    content = _zpoly_content(coeff)
    prim = coeff.scale(KappaRational.const(1 / content))
    lead = prim.coefficient(prim.leading_weight())
    sign = _leading_sign(lead)
    if sign < 0:
        prim = -prim
    body = _zpoly_render(prim, latex, "k")
    if len(prim.terms) > 1 or latex:
        body = f"({body})"
    elif " " in body:
        body = f"({body})"
    dstr = _deriv_str(deriv, latex)
    if content == 1:
        return sign, f"{body} {dstr}".strip()
    cstr = (f"\\frac{{{content.numerator}}}{{{content.denominator}}}"
            if (latex and content.denominator != 1) else str(content))
    return sign, f"{cstr} {body} {dstr}".strip()


def operator_text(op, latex: bool = False) -> str:
    lines = []
    for coeff, deriv in op.sorted_terms():
        sign, body = operator_term_str(coeff, deriv, latex)
        prefix = "- " if sign < 0 else ("+ " if lines else "  ")
        lines.append(f"{prefix}{body}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_path(directory: str | Path, rank: int, weight: Weight) -> Path:
    name = f"p_r{rank}_w{'-'.join(str(e) for e in weight)}.json"
    return Path(directory) / name


def _payload_checksum(obj: dict) -> str:
    # imported here: hashlib loads OpenSSL, about 3 MB of memory that only
    # the disk cache needs
    import hashlib

    payload = {k: obj[k] for k in ("version", "rank", "weight", "terms")}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def cache_write(directory: str | Path, weight: Weight, p: ZPolynomial) -> Path:
    """Write the entry to a temporary file beside it, then rename it into
    place, so a reader sees the old entry or the new one, never a torn one."""
    path = _cache_path(directory, p.rank, weight)
    path.parent.mkdir(parents=True, exist_ok=True)
    obj = zpoly_to_obj(p, weight)
    obj["version"] = CACHE_VERSION
    obj["checksum"] = _payload_checksum(obj)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(canonical_json(obj))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def cache_read(directory: str | Path, rank: int, weight: Weight):
    """Returns (polynomial | None, reason); a bad entry is reported, not fatal."""
    path = _cache_path(directory, rank, weight)
    if not path.exists():
        return None, "miss"
    try:
        obj = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None, "corrupt"
    if not isinstance(obj, dict):
        return None, "corrupt"
    if obj.get("version") != CACHE_VERSION:
        return None, "version-mismatch"
    try:
        if obj.get("checksum") != _payload_checksum(obj):
            return None, "corrupt"
        weight_read, poly = zpoly_from_obj(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None, "corrupt"
    if weight_read != tuple(weight) or poly.rank != rank:
        return None, "corrupt"
    return poly, "hit"


# ---------------------------------------------------------------------------
# golden data
# ---------------------------------------------------------------------------

def load_golden(rank: int = 3) -> list[tuple[Weight, ZPolynomial]]:
    """The bundled table of exactly known polynomials for the given rank."""
    if rank != 3:
        raise ValueError(f"no golden data bundled for rank {rank}")
    data_path = Path(__file__).parent / "_data" / "appendix_a3.json"
    entries = json.loads(data_path.read_text())
    out = []
    for obj in entries:
        weight, poly = zpoly_from_obj(obj)
        out.append((weight, poly))
    return out


def resolve_cache_dir(cli_value: Optional[str]) -> Optional[str]:
    """The cache directory, with the environment override taking precedence."""
    return os.environ.get("GEGENLAB_CACHE") or cli_value
