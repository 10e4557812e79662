"""Orbital mechanics: Walker constellations, propagation, visibility, passes."""

from repro.orbits.elements import (
    ShellConfig,
    SatelliteId,
    starlink_shell1,
    starlink_shell2,
    starlink_shell3,
    starlink_vleo,
    oneweb_phase1,
    all_shell_presets,
)
from repro.orbits.walker import Constellation, build_walker_delta
from repro.orbits.visibility import (
    VisibleSatellite,
    visible_satellites,
    nearest_visible_satellite,
    nearest_visible_satellites,
    coverage_fraction,
)
from repro.orbits.passes import PassWindow, predict_passes, next_pass

__all__ = [
    "ShellConfig",
    "SatelliteId",
    "starlink_shell1",
    "starlink_shell2",
    "starlink_shell3",
    "starlink_vleo",
    "oneweb_phase1",
    "all_shell_presets",
    "Constellation",
    "build_walker_delta",
    "VisibleSatellite",
    "visible_satellites",
    "nearest_visible_satellite",
    "nearest_visible_satellites",
    "coverage_fraction",
    "PassWindow",
    "predict_passes",
    "next_pass",
]
