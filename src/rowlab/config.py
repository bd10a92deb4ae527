"""Calculus configurations and the named presets.

A config is a bundle of feature switches: which constructors exist (variants,
records), which subtyping mode Upcast uses, and at what level row/presence
polymorphism operates (explicit abstractions, or rank-1 with inference).
Rank limits carve out the fragments whose upcasts can be erased.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CalculusConfig:
    name: str
    variants: bool = False
    records: bool = False
    subtyping: str = "none"  # none | simple | covariant | full
    row_poly: str = "none"  # none | higher | rank1
    pres_poly: str = "none"  # none | higher | rank1
    record_rank_limit: int | None = None
    variant_rank_limit: int | None = None
    app_sub: bool = False  # subsumption folded into application (algorithmic)

    @property
    def rank1(self) -> bool:
        return self.row_poly == "rank1" or self.pres_poly == "rank1"

    @property
    def rank_limited(self) -> bool:
        return self.record_rank_limit is not None or self.variant_rank_limit is not None

    @property
    def structural_subtyping(self) -> bool:  # evaluated by erasure
        return self.subtyping in ("covariant", "full")

    @property
    def allows_let(self) -> bool:
        return self.rank1 or self.rank_limited

    def with_app_sub(self) -> "CalculusConfig":
        return replace(self, app_sub=True)


def _cfg(name: str, **kw) -> CalculusConfig:
    return CalculusConfig(name=name, **kw)


PRESETS: dict[str, CalculusConfig] = {
    cfg.name: cfg
    for cfg in [
        _cfg("lam"),
        _cfg("var", variants=True),
        _cfg("var-sub", variants=True, subtyping="simple"),
        _cfg("var-sub-co", variants=True, subtyping="covariant"),
        _cfg("var-sub-full", variants=True, subtyping="full"),
        _cfg("var-row", variants=True, row_poly="higher"),
        _cfg("var-pre", variants=True, pres_poly="higher"),
        _cfg("var-row-pre", variants=True, row_poly="higher", pres_poly="higher"),
        _cfg("var-row1", variants=True, row_poly="rank1"),
        _cfg("var-pre1", variants=True, pres_poly="rank1"),
        _cfg("rec", records=True),
        _cfg("rec-sub", records=True, subtyping="simple"),
        _cfg("rec-sub-co", records=True, subtyping="covariant"),
        _cfg("rec-sub-full", records=True, subtyping="full"),
        _cfg("rec-row", records=True, row_poly="higher"),
        _cfg("rec-pre", records=True, pres_poly="higher"),
        _cfg("rec-row-pre", records=True, row_poly="higher", pres_poly="higher"),
        _cfg("rec-row1", records=True, row_poly="rank1"),
        _cfg("rec-pre1", records=True, pres_poly="rank1"),
        _cfg("var-rec", variants=True, records=True),
        _cfg("var-rec-sub-full", variants=True, records=True, subtyping="full"),
        _cfg("rec-sub-full-rank1", records=True, subtyping="full", record_rank_limit=1),
        _cfg("rec-sub-full-rank2", records=True, subtyping="full", record_rank_limit=2),
        _cfg("var-sub-full-rank1", variants=True, subtyping="full", variant_rank_limit=1),
        _cfg("var-sub-full-rank2", variants=True, subtyping="full", variant_rank_limit=2),
    ]
}


class UsageError(Exception):
    """A request that cannot be served as asked: an unknown calculus, or a
    count, size, depth or fuel out of range, or options that do not fit
    together.  The CLI reports it as the user's error."""


class GenError(Exception):
    """The term generator found no term.  It is defined here, not in
    ``harness``, so that the CLI catches it without loading the generator,
    which only ``verify`` loads."""


def preset(name: str) -> CalculusConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise UsageError(f"unknown calculus {name!r}; known: {known}") from None
