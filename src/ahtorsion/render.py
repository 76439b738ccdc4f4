"""Text rendering of forms and tensors in the superscript-juxtaposition style."""

from __future__ import annotations

from .multilinear import Form, Tensor
from .scalars import Scalar, format_scalar, join_signed


def _indices_label(indices, dim: int) -> str:
    labels = [str(i + 1) for i in indices]
    return "".join(labels) if dim <= 9 else ",".join(labels)


def _signed_chunk(value: Scalar, body: str) -> tuple:
    """(is_negative, rendered term) with the sign stripped when unambiguous."""
    text = format_scalar(value)
    if text == "1":
        return False, body
    if text == "-1":
        return True, body
    negative = False
    if text.startswith("-") and " " not in text:
        negative = True
        text = text[1:]
    if " " in text or "/" in text or "*" in text:
        return negative, f"({text})*{body}"
    return negative, f"{text}*{body}"


def format_form(form: Form) -> str:
    if form.is_zero():
        return "0"
    if form.rank == 0:
        return format_scalar(form.coeffs.get((), Scalar()))
    chunks = []
    for idx in sorted(form.coeffs):
        chunks.append(
            _signed_chunk(form.coeffs[idx], f"e^{_indices_label(idx, form.dim)}")
        )
    return join_signed(chunks)


def format_bilinear(t: Tensor) -> str:
    if t.rank != 2:
        raise ValueError("format_bilinear expects a rank-2 tensor")
    if t.is_zero():
        return "0"
    chunks = []
    for (i, j) in sorted(t.coeffs):
        chunks.append(_signed_chunk(t.coeffs[(i, j)], f"e^{i+1}(x)e^{j+1}"))
    return join_signed(chunks)


def format_torsion(t: Tensor) -> str:
    """Rank-3 tensor antisymmetric in the last two slots, as sum of e^i(x)e^jk."""
    if t.rank != 3:
        raise ValueError("format_torsion expects a rank-3 tensor")
    if t.is_zero():
        return "0"
    chunks = []
    for (i, j, k) in sorted(t.coeffs):
        if j >= k:
            continue
        v = t.coeffs[(i, j, k)]
        chunks.append(
            _signed_chunk(v, f"e^{i+1}(x)e^{_indices_label((j, k), t.dim)}")
        )
    return join_signed(chunks) if chunks else "0"
