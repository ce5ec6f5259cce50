"""Toeplitz embedding of the NuFFT normal operator ``A^H W A``.

The Impatient baseline [10] is "a gridding-accelerated Toeplitz-based
strategy": iterative MRI reconstruction repeatedly applies the normal
operator ``A^H W A``, which for the NuDFT is a Toeplitz (convolution)
operator and can therefore be applied with two zero-padded FFTs and a
precomputed kernel — no per-iteration gridding at all.

The kernel is the trajectory's (weighted) point-spread function — the
adjoint transform of the density-compensation weights — evaluated for
every lag ``q`` in ``[-N, N)^d`` and circulant-embedded on the ``2N``
grid.  It is built from ``2^d`` adjoint transforms on the plan itself,
one per block of the embedding: an ``N``-image adjoint of the weights
modulated by ``exp(2 pi i k . s)`` is the PSF on the lags shifted by
``s``.  So the build reuses the plan's engine (and a compiled engine's
scatter plan), and gridding happens once per block, up front; every
CG iteration after that is two FFTs of size ``(2N)^d`` plus a
pointwise multiply.  This module both (a) provides the fast normal
operator for :func:`repro.recon.cg_reconstruction` and
:class:`repro.mri.SenseOperator` and (b) lets benchmarks reproduce
Impatient's structure: one gridding setup + FFT-only iterations.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import DataQualityError, EngineFailure
from ..robustness.faults import fault_point
from .plan import NufftPlan

__all__ = ["ToeplitzNormalOperator"]


class ToeplitzNormalOperator:
    """FFT-only evaluation of ``A^H W A`` for a fixed trajectory.

    Parameters
    ----------
    plan:
        The NuFFT plan whose normal operator to embed.  Any gridder
        backend works; the PSF kernel is built from ``2^d`` adjoint
        transforms on this plan, which checks its ``cancel_token``
        before each one.  The operator shares the plan's FFT backend
        and buffer pool, so a ``fft_backend="scipy"`` plan gets
        multithreaded ``2N`` FFTs here too.
    weights:
        Optional ``(M,)`` real sample weights ``W`` (density
        compensation) folded into the kernel.
    psf:
        How to evaluate each block of the point-spread function:
        ``"nufft"`` (default) runs the plan's own adjoint — accuracy
        matches the plan's approximation; ``"nudft"`` evaluates the
        exact discrete sum (``O(M * (2N)^d)`` in all — only sensible
        for small test problems, where it makes the operator the
        *exact* NuDFT Gram up to FFT roundoff).

    Notes
    -----
    Each construction builds the PSF.  The reusable operator is the one
    :meth:`NufftPlan.toeplitz <repro.nufft.NufftPlan.toeplitz>` binds
    to the plan and its weights; the CG solvers fetch it there.

    The embedded kernel's spectrum is projected onto its real part.
    The true Gram is Hermitian positive semi-definite and its circulant
    spectrum is real; the projection removes the ``O(nufft-error)``
    imaginary residue so ``apply`` is *exactly* Hermitian — what CG
    assumes.  Eigenvalues are deliberately not clipped: PSD holds by
    construction and clipping would perturb the operator away from
    ``A^H W A``.

    ``apply`` accepts a single image or a ``(K,)``-stacked batch; both
    run one batched FFT pair over a pooled ``(K,) + (2N)^d`` buffer
    (a single image as ``K = 1``) — the multi-coil shape SENSE
    reconstruction needs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.nufft import NufftPlan, ToeplitzNormalOperator
    >>> from repro.trajectories import radial_trajectory
    >>> coords = radial_trajectory(16, 32)
    >>> plan = NufftPlan((16, 16), coords)
    >>> gram = ToeplitzNormalOperator(plan)
    >>> x = np.random.default_rng(0).normal(size=(16, 16)) + 0j
    >>> explicit = plan.adjoint(plan.forward(x))
    >>> err = np.max(np.abs(gram.apply(x) - explicit))
    >>> bool(err / np.max(np.abs(explicit)) < 5e-3)   # table-limited accuracy
    True
    """

    def __init__(
        self,
        plan: NufftPlan,
        weights: np.ndarray | None = None,
        *,
        psf: str = "nufft",
    ):
        if psf not in ("nufft", "nudft"):
            raise ValueError(f"psf must be 'nufft' or 'nudft', got {psf!r}")
        self.shape = plan.image_shape
        self.psf = psf
        m = plan.n_samples
        if weights is None:
            weights = np.ones(m, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if weights.shape[0] != m:
            raise ValueError(f"{weights.shape[0]} weights for {m} samples")
        if not np.isfinite(weights).all():
            n_bad = int(weights.shape[0] - np.count_nonzero(np.isfinite(weights)))
            raise DataQualityError(
                f"{n_bad} sample weight(s) are non-finite; a NaN weight would "
                "poison every lag of the Toeplitz PSF kernel"
            )
        self._embed_shape = tuple(2 * n for n in self.shape)
        self._center = tuple(slice(0, n) for n in self.shape)
        self._fft = plan._fft
        self._pool = plan.buffer_pool
        #: working complex dtype inherited from the plan's precision lane
        self._cdtype = plan.cdtype
        # the plan and the weights are build inputs only: the plan binds
        # its operator (NufftPlan.toeplitz), so a reference back to it
        # would make a cycle that keeps an evicted plan alive until the
        # cyclic garbage collector happens to run
        self._kernel_fft = self._build_kernel(plan, weights)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def _build_kernel(self, plan: NufftPlan, weights: np.ndarray) -> np.ndarray:
        """PSF kernel of ``plan`` and ``weights`` on the 2x grid, as its FFT.

        Raises
        ------
        EngineFailure
            When the built kernel spectrum contains non-finite entries
            — a corrupt kernel would silently poison every later
            ``apply``, so the build refuses to hand it out.
        """
        fault_point("toeplitz:psf")
        if self.psf == "nudft":
            from ..nudft import nudft_adjoint  # noqa: PLC0415 - avoid cycle

            def adjoint(values: np.ndarray) -> np.ndarray:
                return nudft_adjoint(values, plan.coords, self.shape)
        else:
            adjoint = plan.adjoint
        # PSF values T[q] = sum_m w_m exp(+2 pi i k_m . q) for lags q in
        # [-N, N)^d, circulant-embedded at index q mod 2N.  An N-image
        # adjoint evaluates positions p = n - N//2, so modulating the
        # weights by exp(2 pi i k . s) evaluates lags p + s.  Per axis,
        # s = N//2 fills indices [0, N) (lags [0, N)) and s = N//2 - N
        # fills [N, 2N) (lags [-N, 0)): 2^d blocks tile the embedding.
        per_axis = []
        for k, n in zip(plan.coords.T, self.shape):
            first = np.exp(2j * np.pi * (n // 2) * k)
            second = np.exp(2j * np.pi * (n // 2 - n) * k)
            per_axis.append(((slice(0, n), first), (slice(n, 2 * n), second)))
        kernel = np.empty(self._embed_shape, dtype=np.complex128)
        for block in itertools.product(*per_axis):
            values = weights.astype(np.complex128)
            for _, phase in block:
                values *= phase
            kernel[tuple(index for index, _ in block)] = adjoint(values)
        kernel_fft = self._fft.fftn(kernel)
        if not np.isfinite(kernel_fft).all():
            raise EngineFailure(
                "Toeplitz PSF kernel spectrum contains non-finite entries; "
                "refusing to build a normal operator that would corrupt every "
                "apply()"
            )
        # Each PSF block runs in the plan's working dtype (complex64 on
        # "single"); the kernel array and its FFT are complex128 and
        # rounded once to the working dtype here — a float64 spectrum
        # multiplied into a complex64 FFT output would silently upcast
        # every apply() back to complex128.  Hermitian PSF symmetry T[-q] = conj(T[q]) means
        # the true circulant spectrum is real; dropping the
        # approximation-error imaginary residue makes apply() exactly
        # Hermitian.
        real_dtype = np.float32 if self._cdtype == np.complex64 else np.float64
        return np.ascontiguousarray(kernel_fft.real, dtype=real_dtype)

    # ------------------------------------------------------------------
    def health_check(self) -> bool:
        """Whether the embedded spectrum still looks like a Gram kernel.

        CG assumes the normal operator is Hermitian positive
        semi-definite.  The circulant eigenvalues are exactly the
        entries of the embedded kernel spectrum (stored real, so the
        operator is Hermitian by construction), and the check is
        cheap: every entry finite and positive spectral energy present
        (``max > 0``).  Negative embedding entries are *expected* —
        the circulant embedding of a PSD Toeplitz operator need not
        itself be PSD, and real trajectories routinely produce
        negative entries at a few percent of the peak — so they are
        not flagged; only a spectrum with no positive part (zeroed,
        negated, or otherwise corrupted) fails.  The supervised
        solvers call this before trusting a Toeplitz operator and
        degrade to the gridding normal operator when it returns False.
        """
        spec = self._kernel_fft
        return bool(np.isfinite(spec).all() and spec.max() > 0.0)

    # ------------------------------------------------------------------
    def apply(self, image: np.ndarray) -> np.ndarray:
        """Evaluate ``A^H W A image`` with two FFTs.

        A ``(K,) + image_shape`` stack is routed to
        :meth:`apply_batch`; a single image runs as a batch of one.
        """
        image = np.asarray(image, dtype=self._cdtype)
        if image.ndim == self.ndim + 1 and tuple(image.shape[1:]) == self.shape:
            return self.apply_batch(image)
        if tuple(image.shape) != self.shape:
            raise ValueError(f"image shape {image.shape} != {self.shape}")
        return self.apply_batch(image[None])[0]

    def apply_batch(self, images: np.ndarray) -> np.ndarray:
        """Evaluate ``A^H W A`` on a ``(K,)``-stacked image batch.

        One batched FFT pair over all ``K`` embeddings — the per-coil
        loop of SENSE CG collapses into two library calls.
        """
        images = np.asarray(images, dtype=self._cdtype)
        if images.ndim != self.ndim + 1 or tuple(images.shape[1:]) != self.shape:
            raise ValueError(
                f"images must be (K,) + {self.shape}, got {images.shape}"
            )
        k = images.shape[0]
        axes = tuple(range(1, self.ndim + 1))
        big = self._pool.acquire((k,) + self._embed_shape, self._cdtype, zero=True)
        try:
            big[(slice(None),) + self._center] = images
            spec = self._fft.fftn(big, axes=axes)
        finally:
            self._pool.release(big)
        spec *= self._kernel_fft
        conv = self._fft.ifftn(spec, axes=axes)
        return np.ascontiguousarray(conv[(slice(None),) + self._center])

    __call__ = apply
