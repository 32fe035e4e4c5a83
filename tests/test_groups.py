import json

import numpy as np
import pytest

from ncfourier.errors import GroupDataError
from ncfourier.groups import (
    DATA_DIR_ENV,
    FORMAT_VERSION,
    FiniteGroupData,
    available_groups,
    builtin_group,
    builtin_group_names,
    cyclic_group_data,
    load_group_file,
    resolve_group,
    save_group_file,
    validate_group_data,
)


class TestCyclicGroupData:
    def test_structure(self):
        g = cyclic_group_data(4)
        assert g.name == "Z4"
        assert g.order == 4
        assert g.identity == 0
        assert np.array_equal(g.mult_table, (np.arange(4)[:, None] + np.arange(4)) % 4)
        assert g.irrep_dims == (1, 1, 1, 1)
        validate_group_data(g)

    def test_characters(self):
        g = cyclic_group_data(4)
        chi1 = g.irreps[1][:, 0, 0]
        assert np.allclose(chi1, [1, 1j, -1, -1j])

    def test_inverse_helper(self):
        g = cyclic_group_data(5)
        for i in range(5):
            assert g.mult_table[i, g.inverse(i)] == 0

    def test_trivial_group(self):
        validate_group_data(cyclic_group_data(1))

    def test_bad_order(self):
        with pytest.raises(GroupDataError):
            cyclic_group_data(0)


def _doctored(g: FiniteGroupData, **overrides) -> FiniteGroupData:
    fields = {
        "name": g.name,
        "order": g.order,
        "identity": g.identity,
        "mult_table": g.mult_table,
        "irreps": g.irreps,
    }
    fields.update(overrides)
    return FiniteGroupData(**fields)


class TestValidation:
    """Each structural invariant, broken one at a time."""

    def test_identity_out_of_range(self):
        g = cyclic_group_data(3)
        with pytest.raises(GroupDataError, match="identity index"):
            validate_group_data(_doctored(g, identity=3))

    def test_entries_out_of_range(self):
        g = cyclic_group_data(3)
        bad = g.mult_table.copy()
        bad[1, 1] = 7
        with pytest.raises(GroupDataError, match="element range"):
            validate_group_data(_doctored(g, mult_table=bad))

    def test_broken_identity_row(self):
        g = cyclic_group_data(3)
        bad = g.mult_table.copy()
        bad[0, 1] = 2
        with pytest.raises(GroupDataError, match="identity row"):
            validate_group_data(_doctored(g, mult_table=bad))

    def test_not_associative(self):
        g = cyclic_group_data(3)
        bad = g.mult_table.copy()
        bad[1, 2], bad[2, 1] = 1, 1  # keeps identity row/column intact
        with pytest.raises(GroupDataError, match="associative"):
            validate_group_data(_doctored(g, mult_table=bad))

    def test_missing_inverse(self):
        # max(i, j) on {0, 1} is an associative monoid, but 1 has no inverse
        table = np.array([[0, 1], [1, 1]])
        g = cyclic_group_data(2)
        with pytest.raises(GroupDataError, match="inverse"):
            validate_group_data(_doctored(g, mult_table=table))

    def test_no_irreps(self):
        g = cyclic_group_data(2)
        with pytest.raises(GroupDataError, match="no representations"):
            validate_group_data(_doctored(g, irreps=()))

    def test_dim_count_mismatch(self):
        g = cyclic_group_data(3)
        with pytest.raises(GroupDataError, match="squared irrep dims"):
            validate_group_data(_doctored(g, irreps=g.irreps[:2]))

    def test_identity_not_mapped_to_eye(self):
        g = cyclic_group_data(2)
        bad = (2.0 * g.irreps[1][..., 0, 0]).reshape(2, 1, 1)
        with pytest.raises(GroupDataError, match="identity to I"):
            validate_group_data(_doctored(g, irreps=(g.irreps[0], bad)))

    def test_not_unitary(self):
        g = cyclic_group_data(2)
        bad = np.array([1.0, -2.0], dtype=complex).reshape(2, 1, 1)
        with pytest.raises(GroupDataError, match="unitary"):
            validate_group_data(_doctored(g, irreps=(g.irreps[0], bad)))

    def test_not_homomorphism(self):
        g = cyclic_group_data(4)
        # unitary everywhere, identity at e, but chi(1)^2 != chi(2)
        bad = np.array([1, 1j, -1j, -1], dtype=complex).reshape(4, 1, 1)
        irreps = (g.irreps[0], bad, g.irreps[2], g.irreps[3])
        with pytest.raises(GroupDataError, match="homomorphism"):
            validate_group_data(_doctored(g, irreps=irreps))

    def test_repeated_irrep_fails_orthogonality(self):
        g = cyclic_group_data(2)
        with pytest.raises(GroupDataError, match="orthogonality"):
            validate_group_data(_doctored(g, irreps=(g.irreps[0], g.irreps[0])))


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        g = builtin_group("S3")
        path = tmp_path / "s3_copy.json"
        save_group_file(path, g)
        h = load_group_file(path)
        assert h.name == g.name
        assert h.order == g.order
        assert h.identity == g.identity
        assert np.array_equal(h.mult_table, g.mult_table)
        for a, b in zip(h.irreps, g.irreps):
            assert np.allclose(a, b, atol=1e-15)

    def test_format_version_written(self, tmp_path):
        path = tmp_path / "z3.json"
        save_group_file(path, cyclic_group_data(3))
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert set(doc) == {"format_version", "sha256", "group"}

    def test_tampered_payload_rejected(self, tmp_path):
        path = tmp_path / "z4.json"
        save_group_file(path, cyclic_group_data(4))
        doc = json.loads(path.read_text())
        doc["group"]["mult_table"][1][1] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(GroupDataError, match="checksum"):
            load_group_file(path)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "z2.json"
        save_group_file(path, cyclic_group_data(2))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(GroupDataError, match="format_version"):
            load_group_file(path)

    def test_missing_group_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1}')
        with pytest.raises(GroupDataError, match="group"):
            load_group_file(path)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(GroupDataError, match="cannot read"):
            load_group_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GroupDataError, match="cannot read"):
            load_group_file(tmp_path / "nope.json")

    def test_save_validates_first(self, tmp_path):
        g = cyclic_group_data(2)
        bad = _doctored(g, irreps=(g.irreps[0], g.irreps[0]))
        with pytest.raises(GroupDataError):
            save_group_file(tmp_path / "never.json", bad)
        assert not (tmp_path / "never.json").exists()


class TestBuiltins:
    def test_names(self):
        assert set(builtin_group_names()) == {"Z2xZ2", "S3", "D4", "Q8"}

    @pytest.mark.parametrize("name", ["Z2xZ2", "S3", "D4", "Q8"])
    def test_loads_and_validates(self, name):
        g = builtin_group(name)
        validate_group_data(g)
        assert sum(d * d for d in g.irrep_dims) == g.order

    def test_expected_shapes(self):
        assert builtin_group("Z2xZ2").irrep_dims == (1, 1, 1, 1)
        assert sorted(builtin_group("S3").irrep_dims) == [1, 1, 2]
        assert sorted(builtin_group("D4").irrep_dims) == [1, 1, 1, 1, 2]
        assert sorted(builtin_group("Q8").irrep_dims) == [1, 1, 1, 1, 2]

    def test_s3_nonabelian(self):
        g = builtin_group("S3")
        assert not np.array_equal(g.mult_table, g.mult_table.T)

    def test_unknown_builtin(self):
        with pytest.raises(GroupDataError, match="no built-in"):
            builtin_group("A5")


class TestResolution:
    def test_builtin_resolution(self):
        g = resolve_group("Q8")
        assert g.order == 8

    def test_data_dir_argument(self, tmp_path):
        save_group_file(tmp_path / "Z7.json", cyclic_group_data(7))
        g = resolve_group("Z7", extra_dir=tmp_path)
        assert g.order == 7

    def test_env_var(self, tmp_path, monkeypatch):
        save_group_file(tmp_path / "Z6.json", cyclic_group_data(6))
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert resolve_group("Z6").order == 6

    def test_unknown_group(self, tmp_path):
        with pytest.raises(GroupDataError, match="unknown group"):
            resolve_group("Z99", extra_dir=tmp_path)

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_name_outside_the_data_dir_is_unknown(self, tmp_path, where):
        # only catalog names resolve; a path reaches a file through load_group_file
        (tmp_path / "sub").mkdir()
        save_group_file(tmp_path / "outside.json", cyclic_group_data(6))
        name = "../outside" if where == "parent" else str(tmp_path / "outside")
        assert name not in available_groups(extra_dir=tmp_path / "sub")
        with pytest.raises(GroupDataError, match="unknown group"):
            resolve_group(name, extra_dir=tmp_path / "sub")

    def test_available_groups_catalog(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        base = available_groups()
        assert set(base) == {"Z2xZ2", "S3", "D4", "Q8"}
        assert all(v.startswith("builtin:") for v in base.values())

        save_group_file(tmp_path / "Z9.json", cyclic_group_data(9))
        save_group_file(tmp_path / "S3.json", cyclic_group_data(6, name="fake"))
        cat = available_groups(extra_dir=tmp_path)
        assert cat["Z9"] == str(tmp_path / "Z9.json")
        # built-ins are never shadowed by user files
        assert cat["S3"].startswith("builtin:")
