"""Public FFT entry points with size/axis handling and backend dispatch.

These are the only transform functions the rest of the package calls.  The
pure backend routes power-of-two lengths to the iterative radix-2
Cooley-Tukey kernel (paper Fig. 1) and everything else to Bluestein's
chirp-z algorithm, so every length runs in O(n log n).

**Precision.**  All four transforms follow their input dtype: float64 /
complex128 input produces complex128 spectra (the historical behaviour),
while float32 / complex64 input produces complex64 spectra and float32
inverse transforms — the contract the fp32 inference mode
(:class:`repro.precision.PrecisionPolicy`) relies on.  The pure backend
runs its butterflies, chirps and packed real transforms *natively* in
single precision (half the memory traffic).  ``numpy.fft`` (numpy >= 2)
also transforms float32 input natively and returns single-precision
results, so the numpy backend's cast is a no-op (``copy=False``); older
numpy computes in double and the cast rounds once on the way out.

**Destination buffers.**  :func:`rfft` and :func:`irfft` accept an
``out=`` array shaped and typed like the result (with the transformed
axis wherever ``axis`` says).  The workspace-arena execution path uses
this for buffer-stable results: on the pure backend the packed real
paths write their final unpack stage straight into ``out``.  The numpy
backend hands :func:`rfft`'s ``out`` to ``numpy.fft.rfft`` (numpy >= 2),
which writes each transformed line there directly, strided or not;
:func:`irfft` computes normally and copies into ``out`` once (numpy's
``out=`` path is slow on the strided spectra the GEMMs produce).
Either way the returned array *is* ``out`` and the values are
bitwise-identical to the ``out=None`` call.
"""

from __future__ import annotations

import numpy as np

from .backend import get_backend
from .bluestein import fft_bluestein
from .cooley_tukey import fft_radix2
from .twiddle import is_power_of_two, twiddle_factors

__all__ = ["fft", "ifft", "rfft", "irfft"]


def _is_single(dtype: np.dtype) -> bool:
    """True for the single-precision real/complex dtypes."""
    return dtype == np.float32 or dtype == np.complex64


def _prepare(x: np.ndarray, n: int | None, axis: int) -> np.ndarray:
    """Move ``axis`` last and zero-pad or truncate it to length ``n``."""
    x = np.asarray(x)
    moved = np.moveaxis(x, axis, -1)
    if n is None:
        return moved
    if n <= 0:
        raise ValueError(f"transform length must be positive, got {n}")
    current = moved.shape[-1]
    if current == n:
        return moved
    if current > n:
        return moved[..., :n]
    padded = np.zeros(moved.shape[:-1] + (n,), dtype=moved.dtype)
    padded[..., :current] = moved
    return padded


def _pure_fft(x: np.ndarray, inverse: bool) -> np.ndarray:
    """Unnormalized pure-backend transform along the last axis."""
    if is_power_of_two(x.shape[-1]):
        return fft_radix2(x, inverse=inverse)
    return fft_bluestein(x, inverse=inverse)


def _resolve_out(out, shape: tuple[int, ...], dtype, axis: int) -> np.ndarray:
    """Validate an ``out=`` buffer and return it with ``axis`` moved last.

    ``shape``/``dtype`` describe the result in the *moved* layout (axis
    last).  The caller passed ``out`` in its own orientation, so move
    the same axis before checking.  ``casting="no"`` semantics: the
    dtype must match the result exactly — a silent cast would break the
    precision contract the arena path relies on.
    """
    out = np.asarray(out)
    moved = np.moveaxis(out, axis, -1)
    if moved.shape != shape:
        raise ValueError(
            f"out has shape {moved.shape} (axis moved last), "
            f"expected {shape}"
        )
    if moved.dtype != np.dtype(dtype):
        raise ValueError(
            f"out has dtype {moved.dtype}, expected {np.dtype(dtype)}"
        )
    if not moved.flags.writeable:
        raise ValueError("out buffer is not writeable")
    return moved


def _pure_rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pure-backend real FFT via the two-for-one packing.

    For even ``n`` the real signal is packed into a length-``n/2`` complex
    sequence ``z[k] = x[2k] + i x[2k+1]`` and one half-length transform is
    unpacked into the ``n // 2 + 1`` non-redundant bins — half the
    butterfly work of transform-then-truncate.  Odd lengths fall back to
    the full complex transform.  float32 input keeps the packing, the
    half-length transform and the unpacking entirely in complex64.
    """
    n = x.shape[-1]
    cdtype = np.complex64 if _is_single(x.dtype) else np.complex128
    if n < 2 or n % 2:
        result = _pure_fft(x.astype(cdtype), inverse=False)[..., : n // 2 + 1]
        if out is not None:
            np.copyto(out, result)
            return out
        return result
    m = n // 2
    z = x[..., 0::2] + 1j * x[..., 1::2]
    zf = _pure_fft(z.astype(cdtype, copy=False), inverse=False)  # (..., m)
    # Bins 0..m of Z with wraparound Z[m] = Z[0], and conj(Z[m-k]).
    zf_ext = np.concatenate([zf, zf[..., :1]], axis=-1)
    zf_rev = np.conj(zf_ext[..., ::-1])
    even = 0.5 * (zf_ext + zf_rev)  # FFT of x[0::2]
    odd = -0.5j * (zf_ext - zf_rev)  # FFT of x[1::2]
    twiddles = twiddle_factors(n, dtype=np.dtype(cdtype).name)[: m + 1]
    if out is not None:
        # Final unpack writes straight into the caller's buffer; float
        # addition is commutative bit-for-bit, so odd*t + even matches
        # even + t*odd exactly.
        np.multiply(twiddles, odd, out=out)
        out += even
        return out
    return even + twiddles * odd


def _pure_irfft(
    x: np.ndarray, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Pure-backend inverse real FFT (two-for-one unpacking for even ``n``).

    Inverts :func:`_pure_rfft`: the half spectrum is repacked into the
    length-``n/2`` complex spectrum of the interleaved sequence, one
    half-length inverse transform runs, and real/imaginary parts fan back
    out to the even/odd samples.  Odd lengths rebuild the full Hermitian
    spectrum and inverse-transform at length ``n``.  complex64 input
    yields a float32 signal with no intermediate widening.
    """
    cdtype = np.complex64 if _is_single(x.dtype) else np.complex128
    rdtype = np.float32 if cdtype == np.complex64 else np.float64
    x = x.astype(cdtype, copy=False)
    bins = n // 2 + 1
    if n < 2 or n % 2:
        full = np.zeros(x.shape[:-1] + (n,), dtype=cdtype)
        full[..., :bins] = x
        if n > 1:
            tail = np.conj(x[..., 1 : (n + 1) // 2])
            full[..., n - tail.shape[-1] :] = tail[..., ::-1]
        result = _pure_fft(full, inverse=True).real / n
        if out is not None:
            np.copyto(out, result.astype(rdtype, copy=False))
            return out
        return result
    m = n // 2
    # numpy's irfft convention: the DC and Nyquist bins are taken as real
    # (their imaginary parts are discarded); match it before unpacking.
    xk = x[..., :m].copy()  # bins 0..m-1
    xk[..., 0] = xk[..., 0].real
    x_rev = np.conj(x[..., m:0:-1]).copy()  # conj(X[m-k]) for k in 0..m-1
    x_rev[..., 0] = x[..., m].real
    even = 0.5 * (xk + x_rev)
    twiddles = twiddle_factors(n, inverse=True, dtype=np.dtype(cdtype).name)
    odd = 0.5 * (xk - x_rev) * twiddles[:m]
    z = even + 1j * odd
    zt = _pure_fft(z.astype(cdtype, copy=False), inverse=True) / m
    if out is None:
        out = np.empty(x.shape[:-1] + (n,), dtype=rdtype)
    out[..., 0::2] = zt.real
    out[..., 1::2] = zt.imag
    return out


def fft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Discrete Fourier transform of ``x`` along ``axis``.

    ``n`` zero-pads or truncates the transformed axis first, matching the
    ``numpy.fft`` convention.  Returns complex128, or complex64 for
    float32/complex64 input (see the module docstring).
    """
    moved = _prepare(x, n, axis)
    single = _is_single(moved.dtype)
    if get_backend() == "numpy":
        result = np.fft.fft(moved, axis=-1)
        if single:
            result = result.astype(np.complex64, copy=False)
    else:
        cdtype = np.complex64 if single else np.complex128
        result = _pure_fft(np.asarray(moved, dtype=cdtype), inverse=False)
    return np.moveaxis(result, -1, axis)


def ifft(x: np.ndarray, n: int | None = None, axis: int = -1) -> np.ndarray:
    """Inverse DFT of ``x`` along ``axis`` (with ``1/n`` normalization)."""
    moved = _prepare(x, n, axis)
    single = _is_single(moved.dtype)
    if get_backend() == "numpy":
        result = np.fft.ifft(moved, axis=-1)
        if single:
            result = result.astype(np.complex64, copy=False)
    else:
        length = moved.shape[-1]
        cdtype = np.complex64 if single else np.complex128
        result = _pure_fft(np.asarray(moved, dtype=cdtype), inverse=True)
        result = result / length
    return np.moveaxis(result, -1, axis)


def rfft(
    x: np.ndarray,
    n: int | None = None,
    axis: int = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """FFT of real input, returning the ``n // 2 + 1`` non-redundant bins.

    This is the transform the deployment format stores for each circulant
    block (paper section IV-A: "simply keep the FFT result FFT(w_i)"),
    halving both storage and per-inference multiply count.  float32 input
    produces complex64 spectra.  ``out`` receives the result in place
    (see the module docstring) and must match its shape and dtype.
    """
    moved = _prepare(x, n, axis)
    if np.iscomplexobj(moved):
        raise TypeError("rfft requires real input; use fft for complex data")
    single = _is_single(moved.dtype)
    cdtype = np.complex64 if single else np.complex128
    bins = moved.shape[-1] // 2 + 1
    out_moved = None
    if out is not None:
        out_moved = _resolve_out(
            out, moved.shape[:-1] + (bins,), cdtype, axis
        )
    if get_backend() == "numpy":
        if out_moved is not None:
            np.fft.rfft(moved, axis=-1, out=out_moved)
            return out
        result = np.fft.rfft(moved, axis=-1)
        if single:
            result = result.astype(np.complex64, copy=False)
    else:
        rdtype = np.float32 if single else np.float64
        result = _pure_rfft(np.asarray(moved, dtype=rdtype), out=out_moved)
        if out_moved is not None:
            return out
    return np.moveaxis(result, -1, axis)


def irfft(
    x: np.ndarray,
    n: int,
    axis: int = -1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Inverse of :func:`rfft`: half-spectrum back to a length-``n`` real signal.

    ``n`` is required because both even and odd lengths map to the same
    half-spectrum size.  complex64 input produces a float32 signal.
    ``out`` receives the result in place (see the module docstring) and
    must match its shape and dtype.
    """
    x = np.asarray(x)
    if n <= 0:
        raise ValueError(f"output length must be positive, got {n}")
    expected_bins = n // 2 + 1
    moved = np.moveaxis(x, axis, -1)
    if moved.shape[-1] != expected_bins:
        raise ValueError(
            f"irfft expected {expected_bins} bins for n={n}, "
            f"got {moved.shape[-1]}"
        )
    single = _is_single(moved.dtype)
    rdtype = np.float32 if single else np.float64
    out_moved = None
    if out is not None:
        out_moved = _resolve_out(
            out, moved.shape[:-1] + (n,), rdtype, axis
        )
    if get_backend() == "numpy":
        result = np.fft.irfft(moved, n=n, axis=-1)
        if single:
            result = result.astype(np.float32, copy=False)
        if out_moved is not None:
            np.copyto(out_moved, result)
            return out
    else:
        result = _pure_irfft(moved, n, out=out_moved)
        if out_moved is not None:
            return out
    return np.moveaxis(result, -1, axis)
