"""Content objects and catalogs.

A :class:`ContentObject` is the unit the CDN caches: a web asset, a DASH
video segment, a news article. Objects carry *region affinity* — the paper's
central observation is that content popularity is geographic (Boca Juniors
matches matter in Argentina), so caches near the wrong PoP hold the wrong
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, ContentNotFoundError
from repro.simulation.sampler import WeightedIndex

KNOWN_KINDS = ("web", "image", "video-segment", "news", "game-asset")


@dataclass(frozen=True)
class ContentObject:
    """One cacheable object."""

    object_id: str
    size_bytes: int
    kind: str = "web"
    region: str = "global"
    """Region affinity tag (gazetteer region name or "global")."""

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(
                f"object {self.object_id!r} must have positive size"
            )
        if self.kind not in KNOWN_KINDS:
            raise ConfigurationError(f"unknown content kind: {self.kind!r}")


@dataclass
class Catalog:
    """An indexed collection of content objects."""

    objects: dict[str, ContentObject] = field(default_factory=dict)

    def add(self, obj: ContentObject) -> None:
        """Add an object; replacing an existing id is a configuration error."""
        if obj.object_id in self.objects:
            raise ConfigurationError(f"duplicate object id: {obj.object_id!r}")
        self.objects[obj.object_id] = obj

    def get(self, object_id: str) -> ContentObject:
        """Fetch an object by id or raise :class:`ContentNotFoundError`."""
        obj = self.objects.get(object_id)
        if obj is None:
            raise ContentNotFoundError(f"object {object_id!r} not in catalog")
        return obj

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.objects

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[ContentObject]:
        return iter(self.objects.values())

    def by_region(self, region: str) -> list[ContentObject]:
        """All objects whose affinity matches ``region`` (or are global)."""
        return [o for o in self if o.region in (region, "global")]


# Size distributions per kind: (log-normal median bytes, sigma).
_SIZE_MODELS = {
    "web": (60_000, 1.0),
    "image": (300_000, 0.9),
    "video-segment": (4_000_000, 0.5),
    "news": (40_000, 0.8),
    "game-asset": (1_500_000, 0.7),
}


def build_catalog(
    rng: np.random.Generator,
    num_objects: int,
    regions: tuple[str, ...] = ("global",),
    global_fraction: float = 0.3,
    kind_weights: dict[str, float] | None = None,
) -> Catalog:
    """Generate a synthetic catalog.

    ``global_fraction`` of objects are region-free; the rest are assigned a
    region uniformly from ``regions``. Sizes follow per-kind log-normals.
    """
    if num_objects <= 0:
        raise ConfigurationError("num_objects must be positive")
    if not 0.0 <= global_fraction <= 1.0:
        raise ConfigurationError("global_fraction must be in [0, 1]")
    if not regions:
        raise ConfigurationError("need at least one region")

    weights = kind_weights or {"web": 0.5, "image": 0.25, "video-segment": 0.15, "news": 0.1}
    kinds = list(weights)
    probs = np.array([weights[k] for k in kinds], dtype=float)
    probs /= probs.sum()
    kind_index = WeightedIndex(probs)

    catalog = Catalog()
    for i in range(num_objects):
        kind = kinds[kind_index.draw(rng)]
        median, sigma = _SIZE_MODELS[kind]
        size = max(1, int(rng.lognormal(np.log(median), sigma)))
        if rng.random() < global_fraction:
            region = "global"
        else:
            region = str(regions[int(rng.integers(len(regions)))])
        catalog.add(
            ContentObject(object_id=f"obj-{i:06d}", size_bytes=size, kind=kind, region=region)
        )
    return catalog
