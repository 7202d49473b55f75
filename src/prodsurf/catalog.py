"""Built-in surface charts with closed-form geometry.

Each entry stores its expected quantities (curvature, vertical angle, mean
curvature, operator determinant) computed from classical closed forms, so
tests compare the numerical pipeline against independent hand results, never
against itself.

Every entry in ``M^2(kappa) x R`` is one chart for all kappa: its point of
``M^2(kappa)`` comes from :func:`~prodsurf.spaceforms.polar` (the point at
geodesic distance rho from the pole, at angle w), and no builder branches on
the sign of kappa except to validate its parameters.  Geodesic lengths of a
domain are in units of ``s = 1/sqrt|kappa|`` (``s = 1`` when flat), so one
domain serves every kappa: ``slice`` takes rho in ``(0.2 s, 1.8 s)`` and the
vertical cylinder's geodesic runs over ``(-1.5 s, 1.5 s)``.  Domains avoid
coordinate seams and the pole; the sampling margin applied by grid sweeps
handles the rest.  ``cor32_flat_minimal`` lives in ``M^4(kappa)`` and keeps
its own chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import jets
from .geometry import SurfaceSpec
from .jets import Jet2
from .spaceforms import make_ambient, polar, sn_cs, unit_length

TWO_PI = 2.0 * math.pi


class CatalogError(ValueError):
    """Unknown catalog id or parameter out of its valid range."""


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    required_params: dict[str, str]
    optional_params: dict[str, float]
    ambient_rule: str
    expected_formulas: dict[str, str]
    build: Callable[[dict[str, float]], SurfaceSpec] = field(repr=False)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CatalogError(msg)


def _build_slice(p: dict[str, float]) -> SurfaceSpec:
    kappa, t0 = p["kappa"], p["t0"]
    s = unit_length(kappa)

    def chart(uj, vj):
        return polar(kappa, uj, vj) + [Jet2.constant(t0, uj.order)]

    expected = {"K": kappa, "normT": 0.0, "normH": 0.0, "detS_tilde": 0.0,
                "normS_tilde2": 0.0}
    return SurfaceSpec("slice", dict(p), ((0.2 * s, 1.8 * s), (0.0, TWO_PI)),
                       make_ambient(kappa, 2), chart, expected, minimal=True)


def _build_vertical_cylinder(p: dict[str, float]) -> SurfaceSpec:
    kappa = p["kappa"]
    s = unit_length(kappa)

    def chart(uj, vj):
        return polar(kappa, uj, 0.0) + [vj]

    expected = {"K": 0.0, "normT": 1.0, "normH": 0.0, "detS_tilde": -0.25,
                "normS_tilde2": 0.5}
    return SurfaceSpec("vertical_geodesic_cylinder", dict(p),
                       ((-1.5 * s, 1.5 * s), (-1.0, 1.0)), make_ambient(kappa, 2), chart,
                       expected, minimal=True)


def _check_circle_radius(kappa: float, r: float, slack: float = 1.0) -> None:
    _require(r > 0, f"r must be positive, got {r}")
    if kappa > 0:
        _require(r * slack < math.pi / (2 * math.sqrt(kappa)),
                 f"r must stay below pi/(2 sqrt(kappa)), got {r}")


def _build_circle_cylinder(p: dict[str, float]) -> SurfaceSpec:
    kappa, r, warp = p["kappa"], p["r"], p["warp"]
    _check_circle_radius(kappa, r)
    _require(p["pad"] in (0.0, 2.0), f"pad must be 0 or 2, got {p['pad']:g}")
    _require(abs(warp) < 1.0, f"|warp| must be < 1 for an immersion, got {warp}")
    pad = int(p["pad"])

    def chart(uj, vj):
        # warp reparameterizes the angle with a u-v coupled term; the surface
        # itself is unchanged, only the chart (and hence Gamma, T^a, the
        # operator matrix) becomes genuinely non-diagonal.
        w = uj + warp * jets.sin(uj) * jets.cos(vj) if warp else uj
        return polar(kappa, r, w) + [Jet2.constant(0.0, uj.order)] * pad + [vj]

    sn, cs = sn_cs(kappa, r)
    cc = cs / sn  # geodesic curvature of the distance-r circle
    eig = (cc * cc + kappa) / 2.0
    expected = {
        "K": 0.0,
        "normT": 1.0,
        "normH": cc / 2.0,
        "detS": -eig * eig,
        "normS2": 2.0 * eig * eig,
        "principal_max": cc,
        "principal_min": 0.0,
    }
    return SurfaceSpec("circle_cylinder", dict(p), ((0.0, TWO_PI), (-1.0, 1.0)),
                       make_ambient(kappa, 2 + pad), chart, expected, minimal=False)


def _build_cor32(p: dict[str, float]) -> SurfaceSpec:
    kappa, theta = p["kappa"], p["theta"]
    _require(kappa > 0, f"kappa must be positive, got {kappa}")
    _require(0 < theta < math.pi / 2, f"theta must lie in (0, pi/2), got {theta}")
    b = math.sqrt(kappa + kappa * math.cos(theta) ** 2)
    ct, st = math.cos(theta), math.sin(theta)
    ambient = make_ambient(kappa, 4)

    def chart(uj, vj):
        bu, bv = b * uj, b * vj
        zero = Jet2.constant(0.0, uj.order)
        return [
            (ct / b) * jets.cos(bu),
            (ct / b) * jets.sin(bu),
            jets.sin(bv) / b,
            jets.cos(bv) / b,
            zero,
            st * uj,
        ]

    domain = ((0.0, TWO_PI / b), (0.0, TWO_PI / b))
    expected = {
        "K": 0.0,
        "normT": st,
        "normH": 0.0,
        "b": b,
        "detS_tilde": -(st ** 4) / 4.0,
        "normS_tilde2": (st ** 4) / 2.0,
    }
    return SurfaceSpec("cor32_flat_minimal", dict(p), domain, ambient, chart, expected,
                       minimal=True)


def _build_perturbed_control(p: dict[str, float]) -> SurfaceSpec:
    kappa, r, amp = p["kappa"], p["r"], p["amp"]
    _require(0 < abs(amp) < 0.5, f"amp must satisfy 0 < |amp| < 0.5, got {amp}")
    _check_circle_radius(kappa, r, slack=1.0 + abs(amp))

    def chart(uj, vj):
        return polar(kappa, r * (1.0 + amp * jets.sin(vj)), uj) + [vj]

    expected = {"pmc_residual_exceeds": 1e-3, "constraint_residual": 0.0}
    return SurfaceSpec("perturbed_control", dict(p), ((0.0, TWO_PI), (0.0, TWO_PI)),
                       make_ambient(kappa, 2), chart, expected, minimal=False)


_ENTRIES: list[CatalogEntry] = [
    CatalogEntry(
        id="slice",
        required_params={"kappa": "any real"},
        optional_params={"t0": 0.0},
        ambient_rule="M^2(kappa) x R at fixed height t0",
        expected_formulas={"K": "kappa", "normT": "0", "normH": "0"},
        build=_build_slice,
    ),
    CatalogEntry(
        id="vertical_geodesic_cylinder",
        required_params={"kappa": "any real"},
        optional_params={},
        ambient_rule="M^2(kappa) x R, cylinder over a complete geodesic",
        expected_formulas={"K": "0", "normT": "1", "normH": "0",
                           "detS_tilde": "-1/4"},
        build=_build_vertical_cylinder,
    ),
    CatalogEntry(
        id="circle_cylinder",
        required_params={"kappa": "any real",
                         "r": "0 < r (< pi/(2 sqrt(kappa)) when kappa > 0)"},
        optional_params={"pad": 0.0, "warp": 0.0},
        ambient_rule="M^2(kappa) x R; pad=2 embeds totally geodesically in M^4(kappa) x R",
        expected_formulas={
            "K": "0",
            "normT": "1",
            "normH": "cot_kappa(r)/2",
            "detS": "-((cot_kappa(r)^2 + kappa)/2)^2",
        },
        build=_build_circle_cylinder,
    ),
    CatalogEntry(
        id="cor32_flat_minimal",
        required_params={"kappa": "kappa > 0", "theta": "0 < theta < pi/2"},
        optional_params={},
        ambient_rule="M^4(kappa) x R, flat helical minimal surface",
        expected_formulas={"K": "0", "normT": "sin(theta)", "normH": "0",
                           "b": "sqrt(kappa (1 + cos(theta)^2))",
                           "detS_tilde": "-sin(theta)^4/4"},
        build=_build_cor32,
    ),
    CatalogEntry(
        id="perturbed_control",
        required_params={"kappa": "any real",
                         "r": "0 < r (1+amp) (< pi/(2 sqrt(kappa)) when kappa > 0)"},
        optional_params={"amp": 0.1},
        ambient_rule="M^2(kappa) x R, circle cylinder with height-modulated radius",
        expected_formulas={"pmc_residual_exceeds": "1e-3"},
        build=_build_perturbed_control,
    ),
]
_BY_ID = {e.id: e for e in _ENTRIES}


def catalog_list() -> list[CatalogEntry]:
    return list(_ENTRIES)


def instantiate(catalog_id: str, params: dict[str, float]) -> SurfaceSpec:
    """Build the chart for a catalog id, validating parameter names and ranges."""
    entry = _BY_ID.get(catalog_id)
    if entry is None:
        raise CatalogError(f"unknown catalog id {catalog_id!r}")
    known = set(entry.required_params) | set(entry.optional_params)
    unknown = set(params) - known
    if unknown:
        raise CatalogError(f"unknown parameter(s) {sorted(unknown)} for {catalog_id!r}")
    missing = set(entry.required_params) - set(params)
    if missing:
        raise CatalogError(f"missing parameter(s) {sorted(missing)} for {catalog_id!r}")
    full = dict(entry.optional_params)
    full.update({k: float(v) for k, v in params.items()})
    return entry.build(full)
