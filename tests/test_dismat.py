import csv
import functools

import numpy as np
import pytest

from dksom.dismat import (
    BLOCK_ROWS,
    DissimilarityMatrix,
    KernelMatrix,
    MatrixFormatError,
    MatrixValidationError,
    VectorDataset,
    _parse_csv_rows,
    _read_csv,
    kernel_to_dissimilarity,
    load_array,
    load_matrix,
    load_vectors,
    save_matrix,
    save_vector,
    squared_euclidean,
    validate,
)


def test_squared_euclidean_scalar_points():
    ds = VectorDataset.from_array([0.0, 1.0, 3.0])
    d = squared_euclidean(ds)
    expected = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    np.testing.assert_array_equal(d.values, expected)
    assert d.zero_diag


def test_kernel_to_dissimilarity_two_point():
    k = KernelMatrix.from_array([[1.0, 0.5], [0.5, 1.0]])
    d = kernel_to_dissimilarity(k)
    np.testing.assert_array_equal(d.values, [[0.0, 1.0], [1.0, 0.0]])
    assert np.all(np.diag(d.values) == 0.0)


def test_kernel_to_dissimilarity_matches_feature_space():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 4))
    k = KernelMatrix.from_array(x @ x.T)
    d = kernel_to_dissimilarity(k)
    ref = squared_euclidean(VectorDataset.from_array(x))
    assert np.max(np.abs(d.values - ref.values)) < 1e-10


def test_kernel_to_dissimilarity_rejects_strong_negativity():
    # an indefinite "kernel" induces clearly negative squared distances
    k = KernelMatrix.from_array([[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(MatrixValidationError):
        kernel_to_dissimilarity(k)


def test_dissimilarity_rejects_negative_entries():
    with pytest.raises(MatrixValidationError, match="negative"):
        DissimilarityMatrix.from_array([[0.0, -1.0], [-1.0, 0.0]])


def test_negative_entry_message_prints_a_plain_float():
    with pytest.raises(MatrixValidationError) as err:
        DissimilarityMatrix.from_array([[0, -2.5], [-2.5, 0]])
    assert str(err.value) == "negative dissimilarity entry -2.5 at (0, 1)"


def test_nonsquare_matrix_rejected():
    with pytest.raises(MatrixFormatError):
        DissimilarityMatrix.from_array(np.zeros((2, 3)))


def test_asymmetry_beyond_tolerance_rejected():
    a = np.array([[0.0, 1.0], [1.5, 0.0]])
    with pytest.raises(MatrixValidationError, match="symmetr"):
        DissimilarityMatrix.from_array(a)


def test_tiny_asymmetry_is_symmetrized_and_recorded():
    a = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    d = DissimilarityMatrix.from_array(a)
    assert d.values[0, 1] == d.values[1, 0]
    assert 0.0 < d.max_asymmetry < 1e-11


@pytest.mark.parametrize("n", [1, 100, 300, 2 * BLOCK_ROWS + 7])  # one point, below a block, ragged
@pytest.mark.parametrize("p", [1, 2, 40])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_builders_bit_equal_to_dense_formula(n, p, scale):
    rng = np.random.default_rng(n * p)
    x = rng.normal(size=(n, p)) * scale

    def dense(diag, gram):
        d = diag[:, None] + diag[None, :] - 2.0 * gram
        np.clip(d, 0.0, None, out=d)
        np.fill_diagonal(d, 0.0)
        return 0.5 * (d + d.T)

    d = squared_euclidean(VectorDataset.from_array(x)).values
    assert d.tobytes() == dense(np.einsum("ij,ij->i", x, x), x @ x.T).tobytes()
    assert not d.flags.writeable
    k = KernelMatrix.from_array(x @ x.T + scale * scale * np.eye(n))
    d = kernel_to_dissimilarity(k).values
    assert d.tobytes() == dense(np.diag(k.values), k.values).tobytes()


@pytest.mark.parametrize("cls", [DissimilarityMatrix, KernelMatrix])
def test_from_array_neither_freezes_nor_aliases_its_argument(cls):
    a = np.array([[0.0, 2.0], [2.0, 0.0]])
    m = cls.from_array(a)
    assert a.flags.writeable and not m.values.flags.writeable
    assert not np.shares_memory(a, m.values)
    a[0, 1] = a[1, 0] = 3.0
    assert m.values[0, 1] == 2.0


def test_from_array_keeps_values_near_the_largest_double_finite():
    # 0.5 * (a + a^T) overflows here; symmetric input must come back unchanged
    a = np.array([[0.0, 1.7e308], [1.7e308, 0.0]])
    for cls in (DissimilarityMatrix, KernelMatrix):
        np.testing.assert_array_equal(cls.from_array(a).values, a)


def test_opposite_signed_zeros_symmetrize_to_positive_zero():
    d = DissimilarityMatrix.from_array([[0.0, -0.0], [0.0, 0.0]])
    assert not np.signbit(d.values).any()


def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(77)
    x = rng.normal(size=(12, 3))
    d = squared_euclidean(VectorDataset.from_array(x))
    path = tmp_path / "d.csv"
    save_matrix(d.values, path)
    back = load_matrix(path, "dissimilarity")
    assert np.array_equal(back.values, d.values)  # exact, not approximate


def _repr_loop_text(values, header=None) -> str:
    """The CSV text of one repr per entry, the writer's reference."""
    lines = [] if header is None else [f"# {header}\n"]
    for row in np.atleast_2d(np.asarray(values, dtype=float)):
        lines.append(",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


_BIG = np.finfo(float).max
_EDGES = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf],
                   [5e-324, -5e-324, _BIG, -_BIG, 0.1],
                   [-0.0, 0.0, 1.0, -np.nan, 0.1]])


def _writer_inputs():
    rng = np.random.default_rng(5)
    repeats = rng.choice([0.0, -0.0, 0.25, 1.0 / 3.0, 1e-300], size=(7, 9))
    square = rng.normal(size=(12, 12))
    coefficients = rng.choice(rng.random(40), size=(600, 50))  # several BLOCK_ROWS blocks
    return {
        "edges": _EDGES,
        "nan-payloads": np.array([[np.nan, np.uint64(0x7FF8000000000001).view(np.float64)]]),
        "ints": np.arange(-6, 6).reshape(3, 4),
        "1-d": rng.random(11),
        "repeats": repeats,
        "strided": square[::2, 1::3],
        "fortran": np.asfortranarray(square),
        "several-blocks": coefficients,
        "empty-rows": np.zeros((3, 0)),
    }


@pytest.mark.parametrize("header", [None, "a,b"])
@pytest.mark.parametrize("name", list(_writer_inputs()))
def test_save_matrix_text_equals_repr_of_each_entry(tmp_path, name, header):
    values = _writer_inputs()[name]
    path = tmp_path / "m.csv"
    save_matrix(values, path, header)
    with open(path, newline="") as fh:
        assert fh.read() == _repr_loop_text(values, header)


@pytest.mark.parametrize("header", [None, "a,b"])
def test_load_save_load_is_bitwise(tmp_path, header):
    rng = np.random.default_rng(8)
    values = np.vstack([_EDGES[:, [0, 1, 3, 4]][:2], rng.normal(size=(BLOCK_ROWS + 3, 4)) * 1e9])
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix(values, first, header)
    loaded = load_array(first)
    save_matrix(loaded, second, header)
    assert load_array(second).tobytes() == loaded.tobytes() == values.tobytes()
    assert second.read_bytes() == first.read_bytes()


def _csv_parity_writers():
    """name -> a function that writes a CSV which NumPy's reader must parse
    as _parse_csv_rows does: save_matrix output of every non-empty, NaN-free
    writer input, and random doubles of many magnitudes as printf text."""
    rng = np.random.default_rng(15)
    doubles = rng.standard_normal((40, 30)) * 10.0 ** rng.uniform(-300, 300, (40, 30))
    writers = {f"random {fmt}": functools.partial(np.savetxt, X=doubles, fmt=fmt, delimiter=",")
               for fmt in ("%.17g", "%.3e")}
    inputs = dict(_writer_inputs(), **{"edges-without-nan": _EDGES[:, [0, 1, 3, 4]]})
    for name, values in inputs.items():
        if values.size and not np.isnan(values).any():
            for header in (None, "a,b"):
                writers[f"save_matrix {name} header={header}"] = functools.partial(
                    save_matrix, values, header=header)
    return writers


@pytest.mark.parametrize("name", list(_csv_parity_writers()))
def test_numpy_csv_reader_is_bitwise_the_csv_module(tmp_path, name):
    path = tmp_path / "m.csv"
    _csv_parity_writers()[name](path)
    reference = np.asarray(_parse_csv_rows(path), dtype=float)
    assert _read_csv(path) is not None  # read by NumPy, not by the fallback
    loaded = load_array(path)
    assert loaded.shape == reference.shape and loaded.tobytes() == reference.tobytes()


def test_csv_field_beyond_the_csv_module_limit(tmp_path):
    path = tmp_path / "long.csv"
    zeros = "0" * csv.field_size_limit()
    path.write_text(f"{zeros}1,2\n")
    assert load_array(path).tolist() == [[1.0, 2.0]]
    path.write_text(f"{zeros}x,2\n")
    with pytest.raises(MatrixFormatError, match="field larger than field limit"):
        load_array(path)


def test_csv_header_and_blank_lines(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("# a,b\n1.0,0.5\n\n0.5,1.0\n")
    k = load_matrix(path, "kernel")
    np.testing.assert_array_equal(k.values, [[1.0, 0.5], [0.5, 1.0]])


def test_csv_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(MatrixFormatError, match="line 2"):
        load_matrix(path, "dissimilarity")


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n1.0\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(path, "dissimilarity")


def test_save_vector_round_trip(tmp_path):
    path = tmp_path / "assign.txt"
    save_vector(np.array([3, 1, 4, 1, 5]), path)
    assert path.read_text().splitlines() == ["3", "1", "4", "1", "5"]


def test_load_vectors(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# x,y\n0.0,1.0\n2.0,3.0\n")
    ds = load_vectors(path)
    assert (ds.n, ds.p) == (2, 2)
    np.testing.assert_array_equal(ds.points, [[0.0, 1.0], [2.0, 3.0]])


def test_validate_dissimilarity_report_fields():
    d = DissimilarityMatrix.from_array([[0.0, 1.0, 9.0], [1.0, 0.0, 4.0], [9.0, 4.0, 0.0]])
    rep = validate(d)
    assert rep.symmetric and rep.zero_diag
    assert rep.min_entry == 0.0
    # squared Euclidean on a line is not a metric: 9 > 1 + 4
    assert rep.metric_violations > 0
    assert rep.ordering_violations == 0
    assert rep.psd_margin is None
    assert set(rep.as_dict()) == {
        "symmetric", "max_asymmetry", "min_entry", "zero_diag",
        "metric_violations", "ordering_violations", "psd_margin",
    }


def test_validate_metric_matrix_clean():
    d = DissimilarityMatrix.from_array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    rep = validate(d)
    assert rep.metric_violations == 0


def test_validate_kernel_reports_psd_margin():
    k = KernelMatrix.from_array([[2.0, 1.0], [1.0, 2.0]])
    rep = validate(k)
    assert rep.psd_margin == pytest.approx(1.0)
    indefinite = validate(KernelMatrix.from_array([[0.0, 1.0], [1.0, 0.0]]))
    assert indefinite.psd_margin == pytest.approx(-1.0)
