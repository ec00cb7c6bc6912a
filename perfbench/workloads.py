"""Workload definitions, seeded corpus generation and the output record.

A workload is a generator spec plus a corpus size.  Instance i of the
corpus for run seed s is generated with seed 1000*s + i; shuffled
families then permute the edge list with SplitMix64(that seed ^
SHUFFLE_SALT), so the planted edge stops being each vertex's first
choice and the solver grows real multi-layer trees.  The solver only
ever sees the serialized instance files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

RECORD_PATH = Path(__file__).with_name("record.json")
SHUFFLE_SALT = 0x5EED
SEED_STRIDE = 1000
EPSILON = "1"
DIGEST_HEX = 8  # per-instance sha256 prefix kept in the record


@dataclass(frozen=True)
class Corpus:
    mode: str
    r: int
    na: int
    nb: int
    extra_edges: int
    shuffle: bool
    instances: int

    def spec_dict(self) -> dict:
        return {
            "mode": self.mode,
            "r": self.r,
            "na": self.na,
            "nb": self.nb,
            "extra_edges": self.extra_edges,
            "epsilon": EPSILON,
            "shuffle_edges": self.shuffle,
            "instances": self.instances,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_name: str  # workloads sharing a corpus name solve identical inputs
    corpus: Corpus
    trace_doc: bool  # solve with `--trace`, writing the trace document


DEEP = Corpus("planted", 3, 600, 1800, 1200, shuffle=True, instances=96)

# Why each benchmark workload exists is stated in BENCHMARK.json.  `witness`
# (shuffled planted r=2 with as many B- as A-vertices, so every solve ends
# in extract_witness and verify_witness) is kept for runs by hand but left
# out of BENCHMARK.json: with corpora large enough for steady figures, the
# benchmark's 3420-s limit for all of its runs fits three workloads, and
# `deep` still reaches the witness path on about a fifth of its instances.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep", "deep", DEEP, trace_doc=False),
        Workload(
            "witness", "witness",
            Corpus("planted", 2, 800, 800, 3200, shuffle=True, instances=64), trace_doc=False,
        ),
        Workload(
            "bulk", "bulk",
            Corpus("guaranteed", 3, 1000, 10000, 2000, shuffle=False, instances=32),
            trace_doc=False,
        ),
        Workload("traced", "deep", DEEP, trace_doc=True),
    )
}


def instance_seed(run_seed: int, index: int) -> int:
    return SEED_STRIDE * run_seed + index


def write_corpus(hb, corpus: Corpus, run_seed: int, count: int, out_dir: Path) -> list[Path]:
    """Generate, shuffle and serialize `count` instances; return their paths.

    `hb` is the imported hbmatch package, passed in so that this module
    never imports the program itself.
    """
    paths = []
    for i in range(count):
        seed = instance_seed(run_seed, i)
        spec = hb.instances.GeneratorSpec(
            mode=corpus.mode,
            r=corpus.r,
            a_count=corpus.na,
            b_count=corpus.nb,
            extra_edges=corpus.extra_edges,
            seed=seed,
        )
        h = hb.instances.generate(spec, hb.params.parse_rational(EPSILON))
        note = spec.describe()
        if corpus.shuffle:
            edges = [(e.a, e.bs) for e in h.edges]
            hb.instances.SplitMix64(seed ^ SHUFFLE_SALT).shuffle(edges)
            h = hb.core.BipartiteHypergraph(h.r, h.a_count, h.b_count, edges)
            note += f" shuffle_seed={seed ^ SHUFFLE_SALT}"
        path = out_dir / f"inst-{i}.hbm"
        path.write_text(hb.cli.serialize_instance(h, comments=[f"generator: {note}"]))
        paths.append(path)
    return paths


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_record() -> dict:
    return json.loads(RECORD_PATH.read_text())


def recorded_digests(record: dict, corpus_name: str, corpus: Corpus, run_seed: int) -> dict | None:
    """Per-instance digest prefixes recorded for this corpus and seed.

    Returns None when the seed lies outside the recorded range.  Raises
    ValueError when the recorded spec differs from the current one, since
    the digests would then describe other inputs.
    """
    entry = record.get("corpora", {}).get(corpus_name)
    if entry is None:
        return None
    if entry["spec"] != corpus.spec_dict():
        raise ValueError(f"record.json spec for {corpus_name!r} differs from workloads.py")
    return entry["digests"].get(str(run_seed))


def expected_prefix(packed: str, index: int) -> str:
    return packed[DIGEST_HEX * index : DIGEST_HEX * (index + 1)]
