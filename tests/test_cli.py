"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_dependency
from repro.logic.nested import NestedTgd
from repro.logic.sotgd import SOTgd


INTRO = "S(x1,x2) -> exists y . (R(y,x2) & (S(x1,x3) -> R(y,x3)))"


class TestDependencyAutoDetection:
    def test_flat_tgd_parses_as_nested(self):
        assert isinstance(parse_dependency("S(x,y) -> R(x,y)"), NestedTgd)

    def test_nested_tgd(self):
        assert isinstance(parse_dependency(INTRO), NestedTgd)

    def test_so_tgd_via_function_terms(self):
        assert isinstance(parse_dependency("S(x,y) -> R(f(x), f(y))"), SOTgd)

    def test_so_tgd_via_clauses(self):
        dep = parse_dependency("S(x) -> R(f(x)) ; T(y) -> R(g(y))")
        assert isinstance(dep, SOTgd)


class TestCommands:
    def test_chase(self, capsys):
        code = main(["chase", "--dep", "S(x,y) -> R(x,y)", "--instance", "S(a,b)"])
        assert code == 0
        assert "R(a, b)" in capsys.readouterr().out

    def test_chase_core(self, capsys):
        code = main(
            ["chase", "--dep", INTRO, "--instance", "S(a,b), S(a,c)", "--core"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("R(") == 2  # core keeps one block

    def test_implies_positive(self, capsys):
        code = main(
            [
                "implies",
                "--lhs", "S1(x1) & S2(x2) -> R(x2, x1)",
                "--rhs", "S1(x1) -> exists y . (S2(x2) -> R(x2, y))",
            ]
        )
        assert code == 0
        assert "implies: True" in capsys.readouterr().out

    def test_implies_negative_exit_code(self, capsys):
        code = main(
            [
                "implies",
                "--lhs", "S2(x2) -> exists z . R(x2, z)",
                "--rhs", "S1(x1) -> exists y . (S2(x2) -> R(x2, y))",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "implies: False" in out
        assert "counterexample source" in out

    def test_implies_with_egd(self, capsys):
        code = main(
            [
                "implies",
                "--lhs", "S(x,y) -> R2(y,y)",
                "--rhs", "S(x,y) & S(x,z) -> R2(y,z)",
                "--egd", "S(x,y) & S(x,z) -> y = z",
            ]
        )
        assert code == 0

    def test_equivalent(self, capsys):
        code = main(
            [
                "equivalent",
                "--left", "S(x,y) & T(y,z) -> R(x,z)",
                "--right", "T(y,z) & S(x,y) -> R(x,z)",
            ]
        )
        assert code == 0
        assert "equivalent: True" in capsys.readouterr().out

    def test_glav_unbounded(self, capsys):
        code = main(["glav", "--dep", INTRO])
        assert code == 1
        out = capsys.readouterr().out
        assert "bounded f-block size: False" in out
        assert "witness pattern" in out

    def test_glav_bounded_prints_mapping(self, capsys):
        code = main(["glav", "--dep", "S1(x1) -> (S2(x2) -> T(x1, x2))"])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalent GLAV mapping" in out
        assert "S1(x1) & S2(x2) -> T(x1, x2)" in out

    def test_patterns(self, capsys):
        code = main(["patterns", "--dep", INTRO, "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|P_2| = 3" in out

    def test_patterns_respects_limit(self, capsys):
        code = main(["patterns", "--dep", INTRO, "--k", "3", "--limit", "2"])
        assert code == 0
        assert "not enumerating" in capsys.readouterr().out

    def test_profile(self, capsys):
        code = main(
            [
                "profile",
                "--dep", "S(x,y) -> R(f(x), f(y))",
                "--family", "successor",
                "--sizes", "2,4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict" in out

    def test_optimize(self, capsys):
        code = main(
            [
                "optimize",
                "--dep", "S(x,y) -> R(x,y)",
                "--dep", "S(x,y) -> exists z . R(x,z)",
            ]
        )
        assert code == 0
        assert "2 dependencies -> 1" in capsys.readouterr().out

    def test_sql(self, capsys):
        code = main(["sql", "--dep", "S(x,y) -> R(y,x)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE S" in out
        assert "INSERT INTO R SELECT DISTINCT a0.c1, a0.c0 FROM S AS a0;" in out

    def test_sql_rejects_so_tgds(self, capsys):
        code = main(["sql", "--dep", "S(x,y) -> R(f(x), f(y))"])
        assert code == 2  # SO tgds are not nested GLAV: clean error

    def test_certain(self, capsys):
        code = main(
            [
                "certain",
                "--dep", "S(x,y) -> R(x,z)",
                "--dep", "S(x,y) -> R(x,y)",
                "--instance", "S(a,b)",
                "--query", "q(x, y) :- R(x, y)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "a, b" in out
        assert "1 certain answer(s)" in out

    def test_parse_error_reported(self, capsys):
        code = main(["chase", "--dep", "S(x -> R(x)", "--instance", "S(a)"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_dep_rejected(self):
        with pytest.raises(SystemExit):
            main(["chase", "--instance", "S(a)"])


class TestCacheCommand:
    def test_stats_disabled(self, capsys):
        import json

        code = main(["cache", "stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"enabled": False, "path": None}

    def test_clear_disabled_exits_1(self, capsys):
        import json

        code = main(["cache", "clear"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["enabled"] is False

    def test_stats_with_dir(self, capsys, tmp_path):
        import json

        from repro.cache import disk_put

        code = main(["cache", "stats", "--dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["enabled"] is True
        assert payload["entries"] == {}
        assert payload["schema_version"] >= 1
        disk_put("implies", "cli-key", ("v",))
        code = main(["cache", "stats", "--dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == {"implies": 1}

    def test_stats_has_no_counters_or_spaces(self, capsys, tmp_path):
        import json

        code = main(["cache", "stats", "--dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"enabled", "entries", "path", "schema_version", "size_bytes"}

    def test_clear_and_vacuum_with_dir(self, capsys, tmp_path):
        import json

        from repro.cache import configure, disk_get, disk_put

        configure(tmp_path)
        disk_put("implies", "cli-key", ("verdict",))
        code = main(["cache", "clear", "--dir", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == {}
        assert disk_get("implies", "cli-key") is None
        code = main(["cache", "vacuum", "--dir", str(tmp_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["enabled"] is True

    def test_output_is_deterministic_json(self, capsys, tmp_path):
        import json

        code = main(["cache", "stats", "--dir", str(tmp_path)])
        assert code == 0
        first = json.loads(capsys.readouterr().out)
        code = main(["cache", "stats", "--dir", str(tmp_path)])
        assert code == 0
        second = json.loads(capsys.readouterr().out)
        # size_bytes tracks the WAL, which breathes between calls
        first.pop("size_bytes"), second.pop("size_bytes")
        assert first == second
