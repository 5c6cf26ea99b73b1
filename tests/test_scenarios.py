import json
import random
from pathlib import Path

import pytest

from disksurgery import (
    DiskPairSystem,
    ScenarioFormatError,
    builtin_scenario,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    parse_word,
    save_scenario,
    validate_system,
)
from helpers import disjoint_system, random_system

GOLDEN = Path(__file__).parent / "golden"


class TestRoundTrip:
    def test_fig1(self, tmp_path):
        system = builtin_scenario("fig1", 3)
        path = tmp_path / "fig1.json"
        save_scenario(system, path)
        assert load_scenario(path) == system

    def test_random_systems(self, rng, tmp_path):
        for i in range(25):
            system = random_system(rng)
            path = tmp_path / f"s{i}.json"
            save_scenario(system, path)
            assert load_scenario(path) == system

    def test_disjoint_pair(self, tmp_path):
        # No chords: empty orders, one cyclic label per disk.
        system = disjoint_system(label_d="x1 x2", label_e="x2^-1")
        path = tmp_path / "disjoint.json"
        save_scenario(system, path)
        loaded = load_scenario(path)
        assert loaded == system
        assert validate_system(loaded) == []

    def test_meta_preserved(self, tmp_path):
        system = builtin_scenario("fig1", 3)
        path = tmp_path / "fig1.json"
        save_scenario(system, path)
        assert load_scenario(path).meta == system.meta

    def test_dumps_is_deterministic(self):
        system = builtin_scenario("fig1", 4)
        assert dumps_scenario(system) == dumps_scenario(system)


class TestSchemaErrors:
    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(dumps_scenario(builtin_scenario("fig1", 3))[:40])
        with pytest.raises(ScenarioFormatError, match="not valid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ScenarioFormatError, match="cannot read .*'utf-8' codec"):
            load_scenario(path)
        with pytest.raises(ScenarioFormatError, match="^not valid JSON"):
            loads_scenario(b"{\"rank\": \"\xff\"}")

    def test_deep_nesting(self):
        with pytest.raises(ScenarioFormatError, match="^not valid JSON: maximum recursion depth"):
            loads_scenario("[" * 200_000 + "]" * 200_000)

    def test_missing_field(self):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        del data["chords"]
        with pytest.raises(ScenarioFormatError, match="^chords: missing"):
            loads_scenario(json.dumps(data))

    def test_unknown_field(self):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["labels"] = []
        with pytest.raises(ScenarioFormatError, match="^labels: unknown"):
            loads_scenario(json.dumps(data))

    def test_bad_word_names_field_path(self):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["labels_d"][2] = "x9"
        with pytest.raises(ScenarioFormatError, match=r"^labels_d\[2\]"):
            loads_scenario(json.dumps(data))

    @pytest.mark.parametrize("label", ["x\u0661", "x" + "9" * 5000], ids=["non-ascii", "long"])
    def test_bad_index_digits_name_field_path(self, label):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["labels_e"][1] = label
        with pytest.raises(ScenarioFormatError, match=r"^labels_e\[1\]: token 1: "):
            loads_scenario(json.dumps(data))

    def test_bad_chord_arity(self):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["chords"][0] = ["p1"]
        with pytest.raises(ScenarioFormatError, match=r"^chords\[0\]"):
            loads_scenario(json.dumps(data))

    def test_bad_rank_type(self):
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["rank"] = "three"
        with pytest.raises(ScenarioFormatError, match="^rank"):
            loads_scenario(json.dumps(data))

    def test_crossing_file_is_schema_valid(self, tmp_path):
        # Invariants are validate_system's job, not the parser's.
        data = json.loads(dumps_scenario(builtin_scenario("fig1", 3)))
        data["order_e"] = ["p1", "p3", "p2", "p4"]
        system = loads_scenario(json.dumps(data))
        assert isinstance(system, DiskPairSystem)
        codes = {v.code for v in validate_system(system)}
        assert "crossing-chords-e" in codes


class TestBuiltin:
    @pytest.mark.parametrize("genus", [3, 4, 5])
    def test_valid_two_chords_no_high_generators(self, genus):
        system = builtin_scenario("fig1", genus)
        assert validate_system(system) == []
        assert system.chord_count == 2
        assert system.rank == genus
        used = {abs(a) for label in system.labels_d + system.labels_e for a in label.letters}
        assert used <= {1, 2}

    def test_genus_too_small(self):
        with pytest.raises(ValueError, match="genus must be an integer >= 3"):
            builtin_scenario("fig1", 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown built-in"):
            builtin_scenario("fig9", 3)

    def test_genus_recorded_in_meta(self):
        assert builtin_scenario("fig1", 5).meta["genus"] == 5

    @pytest.mark.parametrize("genus", range(3, 9))
    def test_dumps_pinned(self, genus):
        # The genus changes only the rank and the genus recorded in meta.
        golden = (GOLDEN / "scenario_fig1_genus3.json").read_text("utf-8")
        assert golden.count('"rank": 3,') == golden.count('"genus": 3,') == 1
        want = golden.replace('"rank": 3,', f'"rank": {genus},').replace(
            '"genus": 3,', f'"genus": {genus},')
        assert dumps_scenario(builtin_scenario("fig1", genus)) == want


def six_label_data():
    """A valid three-chord pair as scenario JSON: six labels per disk."""
    system = random_system(random.Random(5), min_chords=3, max_chords=3)
    return json.loads(dumps_scenario(system))


class TestRepeatedLabelTexts:
    def test_malformed_repeat_names_first_index(self):
        data = six_label_data()
        data["labels_d"][2] = data["labels_d"][4] = "x9"
        with pytest.raises(ScenarioFormatError, match=r"^labels_d\[2\]: "):
            loads_scenario(json.dumps(data))

    def test_valid_repeats_load_equal_and_round_trip(self):
        data = six_label_data()
        for i in (0, 2, 4):
            data["labels_d"][i] = "x1 x2^-1 x1"
        data["labels_e"][1] = data["labels_e"][5] = "1"
        text = json.dumps(data, indent=2) + "\n"
        system = loads_scenario(text)
        word = parse_word("x1 x2^-1 x1", system.rank)
        assert [system.labels_d[i] for i in (0, 2, 4)] == [word] * 3
        assert system.labels_e[1] == system.labels_e[5] == parse_word("1", system.rank)
        assert validate_system(system) == []
        assert dumps_scenario(system) == text
        assert loads_scenario(dumps_scenario(system)) == system
