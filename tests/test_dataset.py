import json
import re
import struct

import numpy as np
import pytest

from evops.dataset import (
    EmbeddingFormatError,
    GenomeLayout,
    ManifestParseError,
    SlideRecord,
    ValidationError,
    build_layout,
    load_dataset,
    make_dataset,
    read_embedding_file,
    slide_mean_all,
    write_dataset,
    write_embedding_file,
    write_json,
)
from evops.synthgen import SynthConfig, generate


def make_slide(slide_id, label, split, rows, dim, seed=0):
    rng = np.random.default_rng(seed)
    return SlideRecord(
        slide_id=slide_id,
        label=label,
        split=split,
        embeddings=rng.standard_normal((rows, dim)).astype(np.float32),
    )


def write_manifest(tmp_path, dim, entries, normalization=None):
    manifest = {"dim": dim, "slides": entries}
    if normalization is not None:
        manifest["normalization"] = normalization
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_minimal_dataset(tmp_path):
    entries = []
    for slide_id, label, split in [
        ("s1", "tumor", "train"),
        ("s2", "normal", "train"),
        ("s3", "tumor", "validation"),
    ]:
        emb = np.arange(8, dtype=np.float32).reshape(2, 4) + len(entries)
        write_embedding_file(tmp_path / f"{slide_id}.emb", emb)
        entries.append(
            {"slide_id": slide_id, "label": label, "split": split,
             "path": f"{slide_id}.emb", "rows": 2}
        )
    ds = load_dataset(write_manifest(tmp_path, 4, entries))
    assert ds.dim == 4
    assert ds.classes == ("normal", "tumor")  # inferred, lexicographic
    assert len(ds.train) == 2 and len(ds.validation) == 1 and len(ds.test) == 0
    assert ds.normalization == "raw"


def test_load_accepts_directory_path(tmp_path):
    ds = generate(SynthConfig(seed=3), out_dir=tmp_path)
    assert load_dataset(tmp_path).content_hash == ds.content_hash


def test_dim_mismatch_names_slide(tmp_path):
    write_embedding_file(tmp_path / "good.emb", np.ones((2, 4), dtype=np.float32))
    write_embedding_file(tmp_path / "bad.emb", np.ones((2, 8), dtype=np.float32))
    entries = [
        {"slide_id": "good", "label": "a", "split": "train", "path": "good.emb", "rows": 2},
        {"slide_id": "bad", "label": "a", "split": "train", "path": "bad.emb", "rows": 2},
    ]
    with pytest.raises(ValidationError, match="bad"):
        load_dataset(write_manifest(tmp_path, 4, entries))


def test_roundtrip_is_bit_exact(tmp_path):
    ds = generate(SynthConfig(seed=11, dim=7, patches_min=1, patches_max=9))
    write_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path / "manifest.json")
    assert loaded.classes == ds.classes
    assert loaded.dim == ds.dim
    for orig, back in zip(ds.slides, loaded.slides):
        assert orig.slide_id == back.slide_id
        assert orig.label == back.label
        assert orig.split == back.split
        assert orig.embeddings.tobytes() == back.embeddings.tobytes()
    assert loaded.content_hash == ds.content_hash


def test_a_loaded_slide_is_a_read_only_view_of_the_bytes_read(tmp_path):
    generate(SynthConfig(seed=3), out_dir=tmp_path)
    for rec in load_dataset(tmp_path).slides:
        assert rec.embeddings.dtype == np.float32
        assert not rec.embeddings.flags.owndata  # no copy of what was read
        with pytest.raises(ValueError, match="read-only"):
            rec.embeddings[0, 0] = 0.0


@pytest.mark.parametrize("slide_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
def test_write_dataset_rejects_an_id_that_is_not_a_file_name(tmp_path, slide_id):
    bad = make_slide(slide_id, "x", "test", 2, 3)
    ds = make_dataset([make_slide("t", "x", "train", 2, 3)],
                      [make_slide("v", "x", "validation", 2, 3)], [bad])
    with pytest.raises(ValidationError, match=f"slide '{re.escape(slide_id)}'"):
        write_dataset(ds, tmp_path / "wd" / "out")
    assert list(tmp_path.rglob("*")) == []


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.emb"
    path.write_bytes(b"NOTMAGIC" + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(EmbeddingFormatError, match="magic"):
        read_embedding_file(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "x.emb"
    path.write_bytes(b"EVOPSEMB" + struct.pack("<II", 3, 4) + b"\x00" * 10)
    with pytest.raises(EmbeddingFormatError, match="truncated"):
        read_embedding_file(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x.emb"
    path.write_bytes(b"EVOPSEMB" + struct.pack("<II", 1, 1) + b"\x00" * 8)
    with pytest.raises(EmbeddingFormatError, match="trailing"):
        read_embedding_file(path)


def test_manifest_errors(tmp_path):
    with pytest.raises(ManifestParseError):
        load_dataset(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestParseError):
        load_dataset(bad)
    with pytest.raises(ManifestParseError, match="dim"):
        load_dataset(write_manifest(tmp_path, 0, [{"slide_id": "s", "label": "a",
                                                   "split": "train", "path": "p",
                                                   "rows": 1}]))


def test_duplicate_slide_id_rejected(tmp_path):
    write_embedding_file(tmp_path / "a.emb", np.ones((1, 2), dtype=np.float32))
    entry = {"slide_id": "dup", "label": "a", "split": "train", "path": "a.emb", "rows": 1}
    with pytest.raises(ValidationError, match="dup"):
        load_dataset(write_manifest(tmp_path, 2, [entry, dict(entry)]))


def test_zero_patch_slide_rejected(tmp_path):
    write_embedding_file(tmp_path / "z.emb", np.ones((0, 2), dtype=np.float32))
    entries = [{"slide_id": "z", "label": "a", "split": "train", "path": "z.emb", "rows": 0}]
    with pytest.raises(ValidationError, match="z"):
        load_dataset(write_manifest(tmp_path, 2, entries))


def test_nonfinite_values_rejected(tmp_path):
    emb = np.ones((2, 2), dtype=np.float32)
    emb[1, 0] = np.nan
    write_embedding_file(tmp_path / "n.emb", emb)
    entries = [{"slide_id": "n", "label": "a", "split": "train", "path": "n.emb", "rows": 2}]
    with pytest.raises(ValidationError, match="n"):
        load_dataset(write_manifest(tmp_path, 2, entries))


def test_declared_rows_must_match_file(tmp_path):
    write_embedding_file(tmp_path / "r.emb", np.ones((3, 2), dtype=np.float32))
    entries = [{"slide_id": "r", "label": "a", "split": "train", "path": "r.emb", "rows": 5}]
    with pytest.raises(ValidationError, match="r"):
        load_dataset(write_manifest(tmp_path, 2, entries))


def test_unknown_split_rejected(tmp_path):
    write_embedding_file(tmp_path / "u.emb", np.ones((1, 2), dtype=np.float32))
    entries = [{"slide_id": "u", "label": "a", "split": "holdout", "path": "u.emb", "rows": 1}]
    with pytest.raises(ValidationError, match="holdout"):
        load_dataset(write_manifest(tmp_path, 2, entries))


def test_build_layout_offsets():
    slides = [make_slide(f"s{i}", "a", "train", rows, 3, seed=i)
              for i, rows in enumerate([5, 3, 4])]
    layout = build_layout(slides)
    assert layout.total_patches == 12
    assert [seg[1] for seg in layout.segments] == [0, 5, 8]
    assert [seg[2] for seg in layout.segments] == [5, 3, 4]


def test_build_layout_single_patch_slide():
    layout = build_layout([make_slide("only", "a", "train", 1, 2)])
    assert layout.total_patches == 1
    assert layout.segments == ((0, 0, 1),)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_build_layout_rejects_a_zero_patch_slide(position):
    # An empty segment would have no bit to cover it: popcounts would read
    # the next segment's first bit, or past the genome's end.
    slides = [make_slide(f"s{i}", "a", "train", 3, 2, seed=i) for i in range(2)]
    slides.insert(position, make_slide("empty", "a", "train", 0, 2))
    with pytest.raises(ValidationError,
                       match=r"^slide 'empty': slide has zero patches$"):
        build_layout(slides)


def test_build_layout_against_prefix_sum_oracle():
    rng = np.random.default_rng(42)
    sizes = rng.integers(1, 50, size=100)
    slides = [make_slide(f"s{i}", "a", "train", int(n), 2, seed=i)
              for i, n in enumerate(sizes)]
    layout = build_layout(slides)
    running = 0
    for (idx, offset, length), expected in zip(layout.segments, sizes):
        assert offset == running
        assert length == expected
        running += int(expected)
    assert layout.total_patches == running
    offsets = layout.offsets
    assert (np.diff(offsets) > 0).all()
    assert offsets[-1] + layout.lengths[-1] == layout.total_patches


def test_layout_matrix_rows_are_each_slides_float64_rows():
    slides = [make_slide(f"s{i}", "a", "train", rows, 3, seed=i)
              for i, rows in enumerate([5, 1, 4])]
    layout = build_layout(slides)
    assert layout.matrix.dtype == np.float64
    assert layout.matrix.shape == (layout.total_patches, 3)
    for (i, offset, length), rec in zip(layout.segments, slides):
        expected = rec.embeddings.astype(np.float64)
        assert layout.matrix[offset : offset + length].tobytes() == expected.tobytes()
    assert layout.matrix is layout.matrix  # stacked once


def test_built_layout_equals_one_built_by_hand():
    slides = [make_slide(f"s{i}", "a", "train", rows, 2, seed=i)
              for i, rows in enumerate([2, 3])]
    built = build_layout(slides)
    by_hand = GenomeLayout(total_patches=built.total_patches, segments=built.segments)
    assert list(map(id, built.slides)) == list(map(id, slides)) and by_hand.slides == ()
    assert built == by_hand
    assert hash(built) == hash(by_hand)
    assert repr(built) == repr(by_hand)


def test_dataset_builds_its_layout_once():
    dataset = generate(SynthConfig(classes=2, train_slides_per_class=2,
                                   validation_slides_per_class=1,
                                   test_slides_per_class=1, dim=4, seed=3))
    assert dataset.layout is dataset.layout
    assert dataset.layout == build_layout(dataset.train)
    assert list(map(id, dataset.layout.slides)) == list(map(id, dataset.train))


def test_slide_mean_all_hand_cases():
    slide = SlideRecord("s", "a", "train",
                        np.array([[1, 1], [3, 3]], dtype=np.float32))
    assert slide_mean_all(slide).tolist() == [2.0, 2.0]
    single = make_slide("one", "a", "train", 1, 4)
    assert np.array_equal(slide_mean_all(single), single.embeddings[0].astype(np.float64))


def test_slide_mean_all_matches_double_precision_oracle():
    rng = np.random.default_rng(7)
    emb = rng.standard_normal((50, 16)).astype(np.float32)
    slide = SlideRecord("s", "a", "train", emb)
    mean = slide_mean_all(slide)
    for j in range(16):
        oracle = sum(float(v) for v in emb[:, j]) / 50
        assert abs(mean[j] - oracle) < 1e-5


def test_slide_mean_all_permutation_invariant():
    rng = np.random.default_rng(8)
    emb = rng.standard_normal((20, 6)).astype(np.float32)
    shuffled = emb[rng.permutation(20)]
    a = slide_mean_all(SlideRecord("a", "x", "train", emb))
    b = slide_mean_all(SlideRecord("b", "x", "train", shuffled))
    assert np.allclose(a, b, atol=1e-12)


def test_normalization_flag_roundtrip(tmp_path):
    entries = []
    write_embedding_file(tmp_path / "s.emb", np.ones((1, 2), dtype=np.float32))
    entries.append({"slide_id": "s", "label": "a", "split": "train",
                    "path": "s.emb", "rows": 1})
    ds = load_dataset(write_manifest(tmp_path, 2, entries, normalization="l2"))
    assert ds.normalization == "l2"


@pytest.mark.parametrize("fault", ["zero rows", "dim", "nan", "duplicate id"])
def test_make_dataset_names_faulty_slide(fault):
    good = make_slide("good", "a", "train", 3, 4, seed=1)
    bad = make_slide("bad", "b", "validation", 3, 4, seed=2)
    if fault == "zero rows":
        bad = make_slide("bad", "b", "validation", 0, 4)
    elif fault == "dim":
        bad = make_slide("bad", "b", "validation", 3, 5)
    elif fault == "nan":
        bad.embeddings[1, 2] = np.nan
    test = [make_slide("bad" if fault == "duplicate id" else "other", "b", "test", 2, 4)]
    with pytest.raises(ValidationError, match="slide 'bad'"):
        make_dataset([good], [bad], test)


def test_manifest_dim_disagreeing_with_first_slide_names_it(tmp_path):
    write_embedding_file(tmp_path / "first.emb", np.ones((2, 8), dtype=np.float32))
    write_embedding_file(tmp_path / "second.emb", np.ones((2, 4), dtype=np.float32))
    entries = [
        {"slide_id": "first", "label": "a", "split": "train", "path": "first.emb", "rows": 2},
        {"slide_id": "second", "label": "a", "split": "train", "path": "second.emb", "rows": 2},
    ]
    with pytest.raises(ValidationError, match="slide 'first'"):
        load_dataset(write_manifest(tmp_path, 4, entries))


@pytest.mark.parametrize("rows", ["3", 3.0, True, -1, None])
def test_manifest_rows_must_be_a_non_negative_integer(tmp_path, rows):
    write_embedding_file(tmp_path / "r.emb", np.ones((3, 2), dtype=np.float32))
    entries = [{"slide_id": "r", "label": "a", "split": "train", "path": "r.emb", "rows": rows}]
    with pytest.raises(ManifestParseError, match="slide 'r': 'rows'"):
        load_dataset(write_manifest(tmp_path, 2, entries))


def test_manifest_dim_true_is_rejected(tmp_path):
    # True is an int to isinstance, and would load one-column files as dim 1.
    write_embedding_file(tmp_path / "d.emb", np.ones((2, 1), dtype=np.float32))
    entries = [{"slide_id": "d", "label": "a", "split": "train", "path": "d.emb", "rows": 2}]
    with pytest.raises(ManifestParseError, match="'dim' must be a positive integer"):
        load_dataset(write_manifest(tmp_path, True, entries))


def test_empty_inputs_are_rejected():
    with pytest.raises(ValidationError, match="no slides"):
        make_dataset([], [], [])
    with pytest.raises(ValidationError, match="empty train split"):
        build_layout([])


def test_write_embedding_file_rejects_a_1d_array(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        write_embedding_file(tmp_path / "x.emb", np.zeros(4, dtype=np.float32))
    assert not (tmp_path / "x.emb").exists()


def test_write_json_replaces_the_file_whole(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"x": 1})
    with pytest.raises(TypeError):  # after json.dump has streamed '{"x": '
        write_json(path, {"x": object()})
    assert path.read_text() == '{\n  "x": 1\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
    # Its mode follows the umask, as that of a file opened for writing does.
    plain = tmp_path / "plain"
    plain.write_text("")
    assert path.stat().st_mode == plain.stat().st_mode
