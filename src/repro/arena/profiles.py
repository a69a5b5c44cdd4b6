"""Selectivity-error profiles for the arena rivals.

A rival algorithm plans against an *estimate* ``qe`` plus a model of
how far the actual location ``qa`` may drift from it — PARQO's "error
profile" (Xiu et al., PAPERS.md).  The ESS grid is geometric in
selectivity, so a multiplicative estimation error is (to grid
precision) an additive offset in grid-index space; a profile is
therefore a distribution over per-dimension index offsets around
``qe``, discretized onto the grid.

The profile is deliberately tiny: its :meth:`ErrorProfile.spec` tuple
is what the arena report and CLI print, and the metamorphic tests in
``tests/test_arena.py`` rely on the degenerate (zero-error) profile
collapsing every rival to the plain optimizer's choice at ``qe``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

#: Profile shapes: a truncated log-space Gaussian, or a uniform box.
PROFILE_KINDS = ("gaussian", "uniform")


@dataclass(frozen=True)
class ErrorProfile:
    """A distribution of estimation error in grid-index space.

    Attributes:
        width: maximum per-dimension index offset considered (the
            profile's support is the ``[-width, width]^D`` box around
            ``qe``, clipped to the grid).  ``0`` is the degenerate
            zero-error profile: all mass on ``qe`` itself.
        spread: Gaussian spread in index units (ignored for
            ``kind="uniform"``).
        kind: ``"gaussian"`` or ``"uniform"``.
    """

    width: int = 2
    spread: float = 1.0
    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ReproError(
                f"unknown error-profile kind {self.kind!r}; "
                f"choose from {PROFILE_KINDS}"
            )
        if self.width < 0:
            raise ReproError("error-profile width must be >= 0")
        if self.kind == "gaussian" and self.width > 0 and self.spread <= 0:
            raise ReproError("error-profile spread must be > 0")

    def offset_weights(self):
        """``(offsets, weights)`` of the 1-D marginal, pre-clipping."""
        offsets = np.arange(-self.width, self.width + 1, dtype=np.int64)
        if self.kind == "uniform" or self.width == 0:
            weights = np.ones(offsets.size, dtype=float)
        else:
            weights = np.exp(-0.5 * (offsets / float(self.spread)) ** 2)
        return offsets, weights / weights.sum()

    def support(self, grid, qe_coords):
        """The discretized scenario set around an estimate.

        Returns ``(flats, weights)``: flat grid indices of every
        distinct scenario location and their probabilities (summing to
        1).  Offsets falling off the grid are clipped to the boundary
        — their mass accumulates on the edge cell, mirroring how an
        estimator cannot err past the selectivity range the ESS covers.
        """
        qe_coords = tuple(int(c) for c in qe_coords)
        offsets, marginal = self.offset_weights()
        per_dim = []
        for dim in range(grid.num_dims):
            idx = np.clip(qe_coords[dim] + offsets, 0,
                          grid.resolution[dim] - 1)
            uniq, inverse = np.unique(idx, return_inverse=True)
            weights = np.zeros(uniq.size, dtype=float)
            np.add.at(weights, inverse, marginal)
            per_dim.append((uniq, weights))
        flats = np.zeros(1, dtype=np.int64)
        weights = np.ones(1, dtype=float)
        for dim, (idx, w) in enumerate(per_dim):
            stride = int(grid.strides[dim])
            flats = (flats[:, None] + idx[None, :] * stride).ravel()
            weights = (weights[:, None] * w[None, :]).ravel()
        return flats, weights

    def spec(self):
        """Picklable/hashable recipe, inverted by :func:`profile_from_spec`."""
        return ("error-profile", self.kind, int(self.width),
                float(self.spread))


def profile_from_spec(spec):
    """Rebuild an :class:`ErrorProfile` from :meth:`ErrorProfile.spec`."""
    if not (isinstance(spec, tuple) and len(spec) == 4
            and spec[0] == "error-profile"):
        raise ReproError(f"not an error-profile spec: {spec!r}")
    _, kind, width, spread = spec
    return ErrorProfile(width=int(width), spread=float(spread), kind=kind)


def as_profile(profile):
    """Coerce None / spec tuple / profile into an :class:`ErrorProfile`."""
    if profile is None:
        return DEFAULT_PROFILE
    if isinstance(profile, ErrorProfile):
        return profile
    if isinstance(profile, tuple):
        return profile_from_spec(profile)
    raise ReproError(
        f"cannot interpret {type(profile).__name__} as an error profile"
    )


def zero_error_profile():
    """The degenerate profile: the estimate is trusted exactly."""
    return ErrorProfile(width=0, spread=1.0, kind="gaussian")


#: The arena default: up to two grid steps of multiplicative error per
#: epp, Gaussian-weighted — a mid-strength PARQO-style profile.
DEFAULT_PROFILE = ErrorProfile(width=2, spread=1.0, kind="gaussian")
