"""Embedding dataset: on-disk format, loading, validation, slide aggregation.

A dataset is a directory holding one JSON manifest plus one flat binary
embedding file per slide:

* ``manifest.json`` -- ``{"dim": <int>, "normalization": "raw"|..., "slides":
  [{"slide_id", "label", "split", "path", "rows"}, ...]}``. Paths are
  relative to the manifest's directory.
* embedding file -- 8-byte magic ``EVOPSEMB``, u32-LE row count, u32-LE
  dimensionality, then rows*dim IEEE-754 f32 values, little-endian,
  row-major. No padding, no trailing bytes.

Loaded datasets are immutable and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import stat
import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

MAGIC = b"EVOPSEMB"
HEADER = struct.Struct("<II")
SPLITS = ("train", "validation", "test")


class ManifestParseError(Exception):
    """Manifest file is missing, unreadable, or structurally invalid."""


class EmbeddingFormatError(Exception):
    """Embedding file has a bad magic, bad header, or wrong payload size."""


class ValidationError(Exception):
    """Dataset content violates an invariant; message names the slide."""


@dataclass(frozen=True)
class SlideRecord:
    """One slide: its identity, class label, split, and patch embeddings."""

    slide_id: str
    label: str
    split: str
    embeddings: np.ndarray  # (rows, dim) float32

    @property
    def rows(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class SplitDataset:
    """A validated train/validation/test cohort sharing one embedding dim.

    ``classes`` is the lexicographically sorted list of labels seen across
    all slides; it fixes confusion-matrix axes for every downstream report.
    """

    classes: tuple[str, ...]
    train: tuple[SlideRecord, ...]
    validation: tuple[SlideRecord, ...]
    test: tuple[SlideRecord, ...]
    dim: int
    normalization: str = "raw"

    @property
    def slides(self) -> tuple[SlideRecord, ...]:
        return self.train + self.validation + self.test

    def require_runnable(self) -> None:
        """Raise unless every split is non-empty (needed to optimize)."""
        for name in SPLITS:
            if not getattr(self, name):
                raise ValidationError(f"split '{name}' is empty; dataset is not runnable")

    @cached_property
    def content_hash(self) -> str:
        """Hash of all labels, splits and embedding bytes; identifies the dataset."""
        h = hashlib.sha256()
        h.update(f"dim={self.dim};norm={self.normalization}".encode())
        for rec in self.slides:
            h.update(f"{rec.slide_id}\x00{rec.label}\x00{rec.split}\x00".encode())
            h.update(np.ascontiguousarray(rec.embeddings, dtype="<f4"))
        return h.hexdigest()

    @cached_property
    def layout(self) -> GenomeLayout:
        """The training split's genome layout, and with it the training matrix."""
        return build_layout(self.train)


@dataclass(frozen=True)
class GenomeLayout:
    """Maps genome bit positions to (slide, patch) pairs.

    Training slides occupy contiguous, non-overlapping segments covering
    [0, total_patches) in training-slide order. ``build_layout`` also keeps
    the slides, whose rows ``matrix`` stacks; equality, hash and repr
    ignore them, so a layout built by hand from its segments equals it.
    """

    total_patches: int
    segments: tuple[tuple[int, int, int], ...]  # (slide_index, offset, length)
    slides: tuple[SlideRecord, ...] = field(default=(), compare=False, repr=False)

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.array([seg[1] for seg in self.segments], dtype=np.intp)

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([seg[2] for seg in self.segments], dtype=np.intp)

    @property
    def n_slides(self) -> int:
        return len(self.segments)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The slides' patch rows as one (P, dim) float64 matrix, in segment order."""
        # Keep astype: freeing the float32 stack lifts glibc's mmap threshold, speeding scoring.
        return np.concatenate([rec.embeddings for rec in self.slides]).astype(np.float64)

    @cached_property
    def column_slices(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """The (slide, dim) columns of ``matrix`` whose sums may round, split.

        Maps a slide index to ``(dims, slices)``: the slide's columns that
        ``truncate_columns`` finds inexact, and their ``exact_slices``
        stacked as an (n_slices, length, len(dims)) array. Slides whose
        columns are all exact are left out; on Gaussian embeddings that is
        nearly every slide.
        """
        split = {}
        for s, (_, offset, length) in enumerate(self.segments):
            rows = self.matrix[offset : offset + length]
            dims = np.flatnonzero(~truncate_columns(rows)[1])
            if dims.size:
                split[s] = (dims, np.stack(exact_slices(rows[:, dims])))
        return split


def truncate_columns(columns) -> tuple[np.ndarray, np.ndarray]:
    """Each column's values truncated toward zero to multiples of 2**(E - 53),
    and which columns that leaves unchanged.

    E is the column's smallest exponent with sum(|x|) < 2**E, and one more
    for the rounding of that sum itself. A column left unchanged holds
    multiples of 2**(E - 53) only, so every sum of any subset of it, in any
    order, is a multiple of 2**(E - 53) below 2**E: a float64, exactly. A
    column with a non-finite value counts as unchanged; no split helps it.
    """
    total = np.abs(columns).sum(axis=0)
    exponent = np.frexp(total)[1] - 52  # E - 53
    heads = np.ldexp(np.trunc(np.ldexp(columns, -exponent)), exponent)
    return heads, (heads == columns).all(axis=0) | ~np.isfinite(total)


def exact_slices(columns) -> list[np.ndarray]:
    """Finite ``columns`` as slices that add back to them exactly, in order.

    Each slice is unchanged by ``truncate_columns``, so its column sums
    are exact whatever the summation order; the first is the columns'
    truncated heads, and each later one splits what the heads left.
    """
    slices = []
    heads, exact = truncate_columns(columns)
    while not exact.all():
        slices.append(heads)
        columns = columns - heads  # exact: the bits below the heads
        heads, exact = truncate_columns(columns)
    return slices + [columns]


def build_layout(train_slides) -> GenomeLayout:
    """Assign each training slide a contiguous genome segment, in order."""
    if not train_slides:
        raise ValidationError("cannot build a genome layout from an empty train split")
    segments = []
    offset = 0
    for i, rec in enumerate(train_slides):
        if not rec.rows:
            raise ValidationError(f"slide '{rec.slide_id}': slide has zero patches")
        segments.append((i, offset, rec.rows))
        offset += rec.rows
    return GenomeLayout(total_patches=offset, segments=tuple(segments),
                        slides=tuple(train_slides))


def check_number_fields(config) -> None:
    """Raise ValueError for a dataclass field that is not the number it is annotated as.

    An ``int`` field needs a ``numbers.Integral`` and a ``float`` field a
    ``numbers.Real``; a bool is neither. Other fields are not checked.
    """
    for field in fields(config):
        annotation = getattr(field.type, "__name__", field.type)
        kind = {"int": numbers.Integral, "float": numbers.Real}.get(annotation)
        value = getattr(config, field.name)
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError(f"{field.name} must be {annotation}, got {value!r}")


def slide_mean_all(slide: SlideRecord) -> np.ndarray:
    """Mean over every patch row, accumulated in double precision."""
    return slide.embeddings.mean(axis=0, dtype=np.float64)


def read_embedding_file(path) -> np.ndarray:
    """Read one binary embedding file as a read-only (rows, dim) float32 array.

    The file is read once, header first. Its size is checked against the
    size the header declares before the payload is read, so an oversized
    or endless file fails without being read, and a path that is not a
    regular file is rejected before it is opened. The array views the
    payload's bytes as read.
    """
    path = Path(path)
    try:
        if not stat.S_ISREG(path.stat().st_mode):
            raise EmbeddingFormatError(f"{path}: not a regular file")
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC) + HEADER.size)
            if len(head) < len(MAGIC) + HEADER.size:
                raise EmbeddingFormatError(f"{path}: file too short for magic and header")
            if head[: len(MAGIC)] != MAGIC:
                raise EmbeddingFormatError(f"{path}: bad magic {head[:len(MAGIC)]!r}")
            rows, dim = HEADER.unpack_from(head, len(MAGIC))
            expected = len(head) + rows * dim * 4
            size = os.fstat(fh.fileno()).st_size
            if size == expected:  # read no further than the header declares
                payload = fh.read(expected - len(head))
                size = len(head) + len(payload)
    except OSError as exc:
        raise EmbeddingFormatError(f"{path}: cannot read embedding file: {exc}") from exc
    if size != expected:
        kind = "truncated payload" if size < expected else "trailing bytes"
        raise EmbeddingFormatError(f"{path}: {kind} ({size} bytes, expected {expected})")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim)


def write_embedding_file(path, embeddings: np.ndarray) -> None:
    """Write a (rows, dim) array as one binary embedding file."""
    arr = np.ascontiguousarray(embeddings, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"embeddings must be 2-D, got shape {arr.shape}")
    rows, dim = arr.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(HEADER.pack(rows, dim))
        fh.write(arr.data)


def write_json(path, value, indent=2) -> None:
    """Write ``value`` as UTF-8 JSON with ``\\n`` line ends and a final newline.

    ``indent=None`` writes it on one line. The JSON goes to a hidden
    ``.<name>.partial`` beside ``path``, which then replaces ``path`` whole:
    a write that is interrupted leaves the earlier file or none, never part
    of one, and removes its partial file.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(value, fh, indent=indent)
            fh.write("\n")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _manifest_path(path) -> Path:
    path = Path(path)
    return path / "manifest.json" if path.is_dir() else path


def load_dataset(manifest_path) -> SplitDataset:
    """Load and validate a dataset from a manifest file (or its directory).

    Checks the manifest itself: its keys and types, each slide's split and
    declared rows, and each file's dim against the manifest's ``dim``. The
    slides are then validated by ``make_dataset``. Every error message about
    a slide names it.
    """
    manifest_path = _manifest_path(manifest_path)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ManifestParseError(f"{manifest_path}: cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestParseError(f"{manifest_path}: invalid JSON: {exc}") from exc

    if not isinstance(manifest, dict):
        raise ManifestParseError(f"{manifest_path}: manifest must be a JSON object")
    try:
        dim = manifest["dim"]
        entries = manifest["slides"]
    except KeyError as exc:
        raise ManifestParseError(f"{manifest_path}: missing manifest key {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ManifestParseError(f"{manifest_path}: 'dim' must be a positive integer")
    if not isinstance(entries, list) or not entries:
        raise ManifestParseError(f"{manifest_path}: 'slides' must be a non-empty array")
    normalization = manifest.get("normalization", "raw")
    if not isinstance(normalization, str):
        raise ManifestParseError(f"{manifest_path}: 'normalization' must be a string")

    base = manifest_path.parent
    by_split: dict[str, list[SlideRecord]] = {name: [] for name in SPLITS}
    for i, entry in enumerate(entries):
        slide_id = entry.get("slide_id") if isinstance(entry, dict) else None
        where = f"slide '{slide_id}'" if isinstance(slide_id, str) else f"slide entry {i}"
        if not isinstance(entry, dict):
            raise ManifestParseError(f"{manifest_path}: {where}: slide entries must be objects")
        try:
            slide_id = entry["slide_id"]
            label = entry["label"]
            split = entry["split"]
            rel_path = entry["path"]
            rows = entry["rows"]
        except KeyError as exc:
            raise ManifestParseError(
                f"{manifest_path}: {where}: slide entry missing key {exc}"
            ) from exc
        if not all(isinstance(v, str) for v in (slide_id, label, split, rel_path)):
            raise ManifestParseError(
                f"{manifest_path}: {where}: slide_id/label/split/path must be strings"
            )
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 0:
            raise ManifestParseError(
                f"{manifest_path}: {where}: 'rows' must be a non-negative integer"
            )
        if split not in SPLITS:
            raise ValidationError(f"{where}: unknown split '{split}'")
        try:
            embeddings = read_embedding_file(base / rel_path)
        except EmbeddingFormatError as exc:
            raise EmbeddingFormatError(f"{where}: {exc}") from exc
        if embeddings.shape[0] != rows:
            raise ValidationError(
                f"{where}: manifest declares {rows} rows, "
                f"file holds {embeddings.shape[0]}"
            )
        if embeddings.shape[1] != dim:
            raise ValidationError(
                f"{where}: embedding dim {embeddings.shape[1]} "
                f"does not match dataset dim {dim}"
            )
        by_split[split].append(
            SlideRecord(slide_id=slide_id, label=label, split=split, embeddings=embeddings)
        )

    return make_dataset(by_split["train"], by_split["validation"], by_split["test"],
                        normalization)


def write_dataset(dataset: SplitDataset, out_dir) -> Path:
    """Write manifest plus one embedding file per slide; returns manifest path.

    Each file is ``<slide_id>.emb`` in ``out_dir``: an id that is empty,
    ``.`` or ``..``, or holds a path separator or NUL, raises
    ValidationError naming the slide before anything is written.
    """
    for rec in dataset.slides:
        if rec.slide_id in ("", ".", "..") or any(c in rec.slide_id for c in "/\\\0"):
            raise ValidationError(f"slide '{rec.slide_id}': slide_id is not a file name")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    # Removed first and written last: a write interrupted on the way leaves
    # no manifest to name files that another cohort's may have replaced.
    manifest_path.unlink(missing_ok=True)
    entries = []
    for rec in dataset.slides:
        filename = f"{rec.slide_id}.emb"
        write_embedding_file(out_dir / filename, rec.embeddings)
        entries.append(
            {
                "slide_id": rec.slide_id,
                "label": rec.label,
                "split": rec.split,
                "path": filename,
                "rows": rec.rows,
            }
        )
    manifest = {
        "dim": dataset.dim,
        "normalization": dataset.normalization,
        "slides": entries,
    }
    write_json(manifest_path, manifest)
    # A rerun into the same directory must not leave an earlier cohort's
    # embedding files beside a manifest that no longer names them.
    named = {entry["path"] for entry in entries}
    for path in out_dir.glob("*.emb"):
        if path.name not in named:
            path.unlink()
    return manifest_path


def make_dataset(train, validation, test, normalization="raw") -> SplitDataset:
    """Assemble and validate a SplitDataset from in-memory slide records."""
    slides = list(train) + list(validation) + list(test)
    if not slides:
        raise ValidationError("dataset has no slides")
    dim = slides[0].dim
    seen: set[str] = set()
    for rec in slides:
        if rec.rows < 1:
            raise ValidationError(f"slide '{rec.slide_id}': slide has zero patches")
        if rec.dim != dim:
            raise ValidationError(
                f"slide '{rec.slide_id}': embedding dim {rec.dim} "
                f"does not match dataset dim {dim}"
            )
        if not np.isfinite(rec.embeddings).all():
            raise ValidationError(f"slide '{rec.slide_id}': non-finite embedding values")
        if rec.slide_id in seen:
            raise ValidationError(f"slide '{rec.slide_id}': duplicate slide_id")
        seen.add(rec.slide_id)
    classes = tuple(sorted({rec.label for rec in slides}))
    return SplitDataset(
        classes=classes,
        train=tuple(train),
        validation=tuple(validation),
        test=tuple(test),
        dim=dim,
        normalization=normalization,
    )
