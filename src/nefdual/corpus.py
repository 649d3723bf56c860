"""Bundled fixture polytopes with known-good partitions."""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from .fileio import parse_partition_spec, parse_polytope_text
from .polytope import Point, Polytope


class CorpusEntry(NamedTuple):
    name: str
    polytope: Polytope
    file_points: tuple[Point, ...]
    partition_specs: tuple[str, ...]
    reflexive: bool

    def partitions(self) -> list[list[list[int]]]:
        """Each bundled partition as index lists over the file order."""
        return [
            parse_partition_spec(spec, len(self.file_points))
            for spec in self.partition_specs
        ]


def _data_root():
    return resources.files("nefdual").joinpath("data")


def polytope_file_text(filename: str) -> str:
    return _data_root().joinpath(filename).read_text(encoding="utf-8")


def load_corpus() -> list[CorpusEntry]:
    manifest = json.loads(_data_root().joinpath("corpus.json").read_text("utf-8"))
    entries = []
    for item in manifest["entries"]:
        poly, pts = parse_polytope_text(polytope_file_text(item["file"]))
        entries.append(
            CorpusEntry(
                name=item["name"],
                polytope=poly,
                file_points=tuple(pts),
                partition_specs=tuple(item["partitions"]),
                reflexive=item["reflexive"],
            )
        )
    return entries


def corpus_entry(name: str) -> CorpusEntry:
    for entry in load_corpus():
        if entry.name == name:
            return entry
    raise KeyError(name)
