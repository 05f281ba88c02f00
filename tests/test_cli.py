import dataclasses
import gc
import gzip
import io
import ipaddress
import itertools
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrt_builder as mb
from dns_fake import whole_file_answers
from e2e_support import ALL_ARTIFACTS, E2E_DIR, EXPECTED_DIR, e2e_config
import rpkiaudit
from rpkiaudit import _merge_sort, _prefix_index, cli, dns_resolution, errors
from rpkiaudit.stages import classify, resolve, validate
from rpkiaudit.stages import analyze, map as map_stage, report
from rpkiaudit.cli import PipelineConfig, _write_text, main, run_stage
from rpkiaudit.diagnostics import Diagnostics
from rpkiaudit.errors import AuditError, DataError, PathError, UsageError


PACKAGE_DATA = Path(rpkiaudit.__file__).parent / "data"

# what an error message calls the input each text flag names
INPUT_NAMES = {
    "--domain-list": "domain list",
    "--fixture-dns": "DNS fixture",
    "--special-purpose-table": "special-purpose table",
    "--roas": "ROA export",
    "--as-registry": "AS registry",
    "--keywords": "keyword file",
    "--external-labels": "external labels",
}


def read(path):
    return path.read_bytes()


def without(row, key):
    return {k: v for k, v in row.items() if k != key}


class TestEndToEnd:
    def test_bin_csvs_match_committed_expectations(self, e2e_output):
        for name in ("bins_base.csv", "bins_www.csv", "cdn_bins_base.csv", "cdn_bins_www.csv"):
            assert read(e2e_output / name) == read(EXPECTED_DIR / name), name

    def test_overlap_matches(self, e2e_output):
        assert read(e2e_output / "overlap.csv") == read(EXPECTED_DIR / "overlap.csv")

    def test_summary_and_report_csv_match_committed_expectations(self, e2e_output):
        for name in ("summary.json", "report.csv"):
            assert read(e2e_output / name) == read(EXPECTED_DIR / name), name

    def test_report_rows(self, e2e_output):
        lines = (e2e_output / "report.csv").read_text().strip().split("\n")
        assert lines[0].startswith("rank,domain,")
        # CDN-served ranks 8..10 have zero coverage, so the top 10 skips them
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4, 5, 6, 7, 11, 12, 13]
        rank4 = lines[4].split(",")
        assert rank4[5:8] == ["n/a", "", ""]  # base variant never resolved

    def test_report_text_alignment(self, e2e_output):
        text = (e2e_output / "report.txt").read_text()
        assert "site004.test" in text and "n/a" in text
        assert "◖(1/4)" in text  # base variant of position-3 domains

    def test_agreement_values(self, e2e_output):
        doc = json.loads((e2e_output / "agreement.json").read_text())
        assert doc["coverage"] == round(95 / 195, 6)
        assert doc["agree"] == round(91 / 95, 6)
        assert doc["confusion"] == {"00": 63, "01": 2, "10": 2, "11": 28}

    def test_diagnostics_counts(self, e2e_output):
        resolve = json.loads((e2e_output / "resolve_diagnostics.json").read_text())
        assert resolve["special_purpose_rejected"] == 2
        assert resolve["cross_check_agree"] == 195
        map_diag = json.loads((e2e_output / "map_diagnostics.json").read_text())
        assert map_diag["as_set_entries"] == 1
        assert map_diag["unreachable_addresses"] == 10
        assert map_diag["malformed_lines"] == 1

    def test_summary_weightings_present(self, e2e_output):
        doc = json.loads((e2e_output / "summary.json").read_text())
        for variant in ("base", "www"):
            assert 0 < doc[variant]["domain_weighted_covered"] < 1
            assert 0 < doc[variant]["pair_weighted_covered"] < 1
        assert doc["www"]["domains"] == 100

    def test_validated_row_schema(self, e2e_output):
        rows = [
            json.loads(line)
            for line in (e2e_output / "validated.jsonl").read_text().strip().split("\n")
        ]
        assert len(rows) == 200
        row = rows[0]
        assert set(row) == {"rank", "domain", "variant", "pairs", "covered", "class"}
        assert set(row["pairs"][0]) == {"prefix", "asn", "state"}

    def test_rerun_is_byte_identical(self, e2e_output, tmp_path):
        out2 = tmp_path / "second"
        assert run_stage("all", e2e_config(out2)) == 0
        for name in ALL_ARTIFACTS:
            assert read(out2 / name) == read(e2e_output / name), name

    def test_stage_isolation(self, e2e_output, tmp_path):
        out2 = tmp_path / "iso"
        out2.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "resolve_diagnostics.json",
                     "pairs.jsonl", "map_diagnostics.json"):
            shutil.copy(e2e_output / name, out2 / name)
        cfg = e2e_config(out2)
        for stage in ("validate", "classify", "analyze", "report"):
            assert run_stage(stage, cfg) == 0
        for name in ("validated.jsonl", "cdn_labels.jsonl", "bins_www.csv", "report.csv"):
            assert read(out2 / name) == read(e2e_output / name), name


def refuse(monkeypatch, *targets):
    """Make each (owner, name) raise when it is called."""
    def refused(*args, **kwargs):
        raise AssertionError("an ipaddress object was parsed, built or printed")

    for owner, name in targets:
        monkeypatch.setattr(owner, name, refused)


PARSERS = [(ipaddress, "ip_network"), (ipaddress, "ip_address")]
NETWORKS = [(ipaddress.IPv4Network, "__init__"), (ipaddress.IPv6Network, "__init__")]


class TestSingleDerivation:
    """Prefix and address text goes through the codec; no stage rebuilds ipaddress objects."""

    def test_later_stages_parse_no_prefix(self, e2e_output, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl", "validated.jsonl"):
            shutil.copy(e2e_output / name, out)
        refuse(monkeypatch, *PARSERS, *NETWORKS)
        cfg = e2e_config(out)
        for stage in ("classify", "analyze", "report"):
            assert run_stage(stage, cfg) == 0
        for name in ("cdn_labels.jsonl", "bins_www.csv", "overlap.csv", "summary.json",
                     "report.txt", "report.csv"):
            assert read(out / name) == read(e2e_output / name), name

    def test_map_and_validate_build_no_network(self, e2e_output, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json"):
            shutil.copy(e2e_output / name, out)
        refuse(monkeypatch, *PARSERS, *NETWORKS)
        cfg = e2e_config(out)
        for stage in ("map", "validate"):
            assert run_stage(stage, cfg) == 0
        for name in ("pairs.jsonl", "validated.jsonl"):
            assert read(out / name) == read(e2e_output / name), name

    def test_resolve_parses_and_writes_through_the_codec(self, e2e_output, tmp_path, monkeypatch):
        out = tmp_path / "out"
        refuse(monkeypatch, *PARSERS, *NETWORKS,
               (ipaddress.IPv4Address, "__init__"), (ipaddress.IPv6Address, "__init__"),
               (ipaddress.IPv4Address, "__str__"), (ipaddress.IPv6Address, "__str__"))
        assert run_stage("resolve", e2e_config(out)) == 0
        for name in ("resolved.jsonl", "resolve_meta.json"):
            assert read(out / name) == read(e2e_output / name), name

    def test_validate_parses_each_distinct_pair_once(self, e2e_output, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "pairs.jsonl", out)
        rows = [json.loads(line) for line in read(out / "pairs.jsonl").splitlines()]
        entries = [(p["prefix"], p["asn"]) for row in rows for p in row["pairs"]]
        assert len(set(entries)) < len(entries)  # the fixture repeats pairs across rows

        calls = []
        parse = validate.parse_prefix  # the codec, as the validate stage imports it
        monkeypatch.setattr(
            validate, "parse_prefix", lambda text: calls.append(text) or parse(text)
        )
        assert run_stage("validate", e2e_config(out)) == 0
        assert 0 < len(calls) <= len(set(entries))
        assert read(out / "validated.jsonl") == read(e2e_output / "validated.jsonl")


class TestStageDependencies:
    def test_map_without_resolve(self, tmp_path):
        cfg = e2e_config(tmp_path / "fresh")
        with pytest.raises(PathError, match="run the 'resolve' stage first"):
            run_stage("map", cfg)

    def test_validate_without_map(self, tmp_path):
        cfg = e2e_config(tmp_path / "fresh")
        with pytest.raises(PathError, match="run the 'map' stage first"):
            run_stage("validate", cfg)

    def test_unknown_stage(self, tmp_path):
        with pytest.raises(UsageError):
            run_stage("frobnicate", e2e_config(tmp_path))


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["resolve", "--no-such-flag"]) == 1

    @pytest.mark.parametrize(
        "stage, flag, message",
        [
            ("resolve", "--domain-list-format",
             "unknown domain list format 'xml' (expected csv_rank_domain or plain_ordered)"),
            ("validate", "--roa-format", "unknown ROA format 'xml' (expected csv or json)"),
        ],
    )
    def test_unknown_format_is_1(self, e2e_output, tmp_path, capsys, stage, flag, message):
        # the stage that reads a format checks it; the argument parser knows no formats
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "pairs.jsonl", out)
        cfg = e2e_config(out)
        args = ["--domain-list", cfg.domain_list, "--fixture-dns", cfg.dns_fixture,
                "--roas", cfg.roas, "--output-dir", str(out)]
        assert main([stage, *args, flag, "xml"]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "+5_3"])
    def test_bad_resolver_port_is_1(self, tmp_path, port):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,x.test\n")
        result = run_cli(
            "resolve",
            "--domain-list", domains,
            "--resolver", f"x=127.0.0.1:{port}",
            "--timeout", "0.2",
            "--output-dir", tmp_path / "out",
        )
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert "port" in result.stderr or "decimal" in result.stderr

    def test_missing_input_is_2(self, tmp_path, capsys):
        code = main(
            [
                "resolve",
                "--domain-list", str(tmp_path / "absent.csv"),
                "--fixture-dns", str(E2E_DIR / "dns.jsonl"),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_stage_dependency_missing_is_2(self, tmp_path, capsys):
        code = main(["validate", "--output-dir", str(tmp_path / "out"),
                     "--roas", str(E2E_DIR / "roas.csv")])
        assert code == 2
        assert "map" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, AuditError)],
        ids=lambda error: error.__name__,
    )
    def test_each_error_class_exits_with_its_code(self, monkeypatch, capsys, error):
        def fail(stage, cfg):
            raise error.__new__(error, "a fault")  # past NotUtf8Error's own __init__

        monkeypatch.setattr(cli, "run_stage", fail)
        assert main(["report"]) == error.exit_code
        assert error.exit_code in (1, 2, 3)
        assert capsys.readouterr().err == "error: a fault\n"

    def test_data_error_is_3(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("malformed only\n")
        code = main(
            [
                "resolve",
                "--domain-list", str(empty),
                "--fixture-dns", str(E2E_DIR / "dns.jsonl"),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_success_is_0(self, tmp_path):
        code = main(
            [
                "resolve",
                "--domain-list", str(E2E_DIR / "domains.csv"),
                "--fixture-dns", str(E2E_DIR / "dns.jsonl"),
                "--primary-resolver", "fixture",
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "resolved.jsonl").exists()


class TestConfigHandling:
    def test_config_file_with_flag_overrides(self, tmp_path, monkeypatch):
        monkeypatch.chdir(E2E_DIR)
        out = tmp_path / "from_config"
        assert main(["all", "--config", "config.json", "--output-dir", str(out)]) == 0
        assert (out / "bins_www.csv").read_bytes() == (EXPECTED_DIR / "bins_www.csv").read_bytes()

    def test_env_var_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(E2E_DIR)
        monkeypatch.setenv("RPKIAUDIT_CONFIG", "config.json")
        out = tmp_path / "env_out"
        assert main(["resolve", "--output-dir", str(out)]) == 0

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frobnicator": 1}')
        assert main(["resolve", "--config", str(bad)]) == 1

    def test_live_dns_flags_override_config(self, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text('{"max_inflight": 4, "resolver_qps": 2.5}')
        seen = []
        monkeypatch.setattr(cli, "run_stage", lambda stage, cfg: seen.append(cfg) or 0)
        assert main(["resolve", "--config", str(config)]) == 0
        assert main(
            ["resolve", "--config", str(config), "--max-inflight", "3", "--resolver-qps", "7.5"]
        ) == 0
        assert [(c.max_inflight, c.resolver_qps) for c in seen] == [(4, 2.5), (3, 7.5)]

    def test_bad_bin_size_rejected(self, tmp_path):
        cfg = e2e_config(tmp_path)
        cfg.bin_size = 0
        with pytest.raises(UsageError):
            run_stage("analyze", cfg)

    @pytest.mark.parametrize("via", ["config", "flag"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("timeout", -1), ("timeout", 0), ("timeout", float("nan")), ("timeout", float("inf")),
            ("timeout", 1e300), ("timeout", 3600.5),
            ("resolver_qps", -1), ("resolver_qps", float("nan")), ("resolver_qps", float("-inf")),
            ("max_inflight", 0), ("max_inflight", -3),
        ],
    )
    def test_bad_live_resolution_setting_is_1(self, tmp_path, capsys, via, key, value):
        # analyze runs no resolver: the value is rejected before any stage starts
        if via == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: value}))  # NaN and Infinity as json.dumps writes
            args = ["--config", str(config)]
        else:  # one argument, so that argparse reads -inf as a value, not a flag
            args = [f"--{key.replace('_', '-')}={value}"]
        assert main(["analyze", *args, "--output-dir", str(tmp_path / "out")]) == 1
        assert f"error: {key} must be " in capsys.readouterr().err

    def test_live_resolution_settings_at_their_bounds_pass(self):
        for timeout, qps, inflight in [(3600, 0, 1), (1e-3, float("inf"), 64), (5, 10**400, 2)]:
            cfg = PipelineConfig(timeout=timeout, resolver_qps=qps, max_inflight=inflight)
            assert cfg.validated() is cfg
        assert resolve._RateLimiter(10**400)._interval == 0.0  # an int rate over float's range

    @pytest.mark.parametrize(
        "doc",
        [
            {"bin_size": "ten"},
            {"ribs": 5},
            {"ribs": ["rib.txt", 5]},
            {"timeout": "5"},
            {"top_n": 2.5},
            {"max_inflight": True},
            {"domain_list": 3},
            {"output_dir": None},
        ],
    )
    def test_wrong_typed_config_value_is_1(self, tmp_path, capsys, doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(config)]) == 1
        (key,) = doc
        assert repr(key) in capsys.readouterr().err

    def test_config_types_widen(self):
        cfg = PipelineConfig(ribs="rib.txt", resolvers="a=192.0.2.1", timeout=3, resolver_qps=2)
        cfg.validated()
        assert (cfg.ribs, cfg.resolvers) == (["rib.txt"], ["a=192.0.2.1"])
        assert (cfg.timeout, cfg.resolver_qps) == (3, 2)

    def test_config_nested_too_deep_is_1(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[" * 200_000 + "]" * 200_000)
        result = run_cli("analyze", "--config", config)
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert str(config) in result.stderr

    def test_non_utf8_config_is_1(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"bin_size": 10, "top_n": "\xff"}')
        assert main(["analyze", "--config", str(config)]) == 1
        assert str(config) in capsys.readouterr().err


class TestResolveDiscards:
    def test_looping_chain_discarded_and_counted(self, tmp_path):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,loop.test\n2,fine.test\n")
        fixture = tmp_path / "dns.jsonl"
        fixture.write_text(
            "\n".join(
                json.dumps(obj)
                for obj in [
                    {"domain": "loop.test", "resolver": "fixture",
                     "cnames": ["a.test", "b.test", "a.test"], "a": ["93.184.216.34"]},
                    {"domain": "www.loop.test", "resolver": "fixture", "a": ["93.184.216.34"]},
                    {"domain": "fine.test", "resolver": "fixture", "a": ["93.184.216.34"]},
                    {"domain": "www.fine.test", "resolver": "fixture", "a": ["93.184.216.34"]},
                ]
            )
            + "\n"
        )
        cfg = PipelineConfig(
            domain_list=str(domains),
            dns_fixture=str(fixture),
            output_dir=str(tmp_path / "out"),
        )
        assert run_stage("resolve", cfg) == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / "resolved.jsonl").read_text().strip().split("\n")
        ]
        assert "loop.test" not in {r["domain"] for r in rows}
        diag = json.loads((tmp_path / "out" / "resolve_diagnostics.json").read_text())
        assert diag["chain_loops"] == 1

    def test_fixture_miss_counted(self, tmp_path):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,present.test\n")
        fixture = tmp_path / "dns.jsonl"
        fixture.write_text(
            json.dumps({"domain": "present.test", "resolver": "fixture", "a": ["93.184.216.34"]})
            + "\n"
        )
        cfg = PipelineConfig(
            domain_list=str(domains),
            dns_fixture=str(fixture),
            output_dir=str(tmp_path / "out"),
        )
        assert run_stage("resolve", cfg) == 0  # www variant missing from fixture
        diag = json.loads((tmp_path / "out" / "resolve_diagnostics.json").read_text())
        assert diag["fixture_misses"] == 1


class TestLiveResolvePath:
    """resolve stage against a local fake DNS server (thread pool path)."""

    def test_live_endpoints_resolve_and_map(self, tmp_path):
        from dns_fake import FakeDnsServer

        server = FakeDnsServer(
            {
                "live.test": {"a": ["93.184.216.34"]},
                "www.live.test": {"cname": "edge.live.test"},
                "edge.live.test": {"cname": "pop.live.test"},
                "pop.live.test": {"a": ["93.184.216.34"]},
            }
        )
        server.start()
        try:
            domains = tmp_path / "domains.csv"
            domains.write_text("1,live.test\n")
            cfg = PipelineConfig(
                domain_list=str(domains),
                resolvers=[f"fake=127.0.0.1:{server.port}"],
                timeout=2.0,
                max_inflight=4,
                resolver_qps=200.0,
                output_dir=str(tmp_path / "out"),
            )
            assert run_stage("resolve", cfg) == 0
        finally:
            server.stop()
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / "resolved.jsonl").read_text().strip().split("\n")
        ]
        assert [(r["domain"], r["status"]) for r in rows] == [
            ("live.test", "ok"),
            ("www.live.test", "ok"),
        ]
        assert rows[1]["cnames"] == ["edge.live.test", "pop.live.test"]

    def test_output_does_not_depend_on_resolver_flag_order(self, tmp_path, monkeypatch):
        from dns_fake import FakeDnsServer
        from rpkiaudit import dns_resolution

        monkeypatch.setattr(dns_resolution.time, "time", lambda: 1_700_000_000)  # fixed "ts"
        server = FakeDnsServer(
            {
                "one.test": {"a": ["93.184.216.34"]},
                "www.one.test": {"cname": "edge.one.test"},
                "edge.one.test": {"a": ["93.184.216.35"], "aaaa": ["2001:db8::1"]},
                "two.test": {"aaaa": ["2001:db8::2"]},
            }
        )
        server.start()
        try:
            domains = tmp_path / "domains.csv"
            domains.write_text("1,one.test\n2,two.test\n")
            outputs = []
            for labels in (["alpha", "beta"], ["beta", "alpha"]):
                out = tmp_path / "-".join(labels)
                cfg = PipelineConfig(
                    domain_list=str(domains),
                    resolvers=[f"{label}=127.0.0.1:{server.port}" for label in labels],
                    primary_resolver="alpha",
                    timeout=2.0,
                    max_inflight=4,
                    output_dir=str(out),
                )
                assert run_stage("resolve", cfg) == 0
                outputs.append(read(out / "resolved.jsonl"))
        finally:
            server.stop()
        assert outputs[0] == outputs[1]
        rows = [json.loads(line) for line in outputs[0].splitlines()]
        assert [(r["rank"], r["variant"], r["resolver"]) for r in rows[:4]] == [
            (1, "base", "alpha"), (1, "base", "beta"), (1, "www", "alpha"), (1, "www", "beta"),
        ]

    def test_repeated_resolver_label_is_usage_error(self, tmp_path):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,x.test\n")
        cfg = PipelineConfig(
            domain_list=str(domains),
            resolvers=["a=127.0.0.1:5353", "a=127.0.0.2:5353"],
            output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(UsageError, match="repeat"):
            run_stage("resolve", cfg)
        assert not (tmp_path / "out").exists()

    def test_no_fixture_and_no_resolvers_is_usage_error(self, tmp_path):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,x.test\n")
        cfg = PipelineConfig(domain_list=str(domains), output_dir=str(tmp_path / "out"))
        with pytest.raises(UsageError):
            run_stage("resolve", cfg)


class TestClassifyJoin:
    def test_labels_equal_a_dict_join_when_either_side_lacks_rows(self, e2e_output, tmp_path):
        from rpkiaudit import cdn_classifier

        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "resolve_meta.json", out)
        resolved = [json.loads(line) for line in read(e2e_output / "resolved.jsonl").splitlines()]
        pairs = [json.loads(line) for line in read(e2e_output / "pairs.jsonl").splitlines()]
        resolved = [row for i, row in enumerate(resolved) if i % 5]  # rows pairs.jsonl has
        pairs = [row for i, row in enumerate(pairs) if i % 3]  # rows resolved.jsonl has
        for name, rows in (("resolved.jsonl", resolved), ("pairs.jsonl", pairs)):
            (out / name).write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert run_stage("classify", e2e_config(out)) == 0

        registry = cdn_classifier.registry_entries(
            (E2E_DIR / "as_registry.txt").read_text().split("\n")
        )
        cdn_asns = cdn_classifier.spot_keywords(cdn_classifier.load_keywords(), registry)
        origins = {(row["rank"], row["domain"]): {p["asn"] for p in row["pairs"]} for row in pairs}
        labels = [json.loads(line) for line in read(out / "cdn_labels.jsonl").splitlines()]
        assert [(r["rank"], r["domain"]) for r in labels] == [
            (r["rank"], r["domain"]) for r in resolved
            if r["resolver"] == "fixture" and r["status"] == "ok"
        ]
        expected = [bool(cdn_asns & origins.get((r["rank"], r["domain"]), set())) for r in labels]
        assert [r["by_asn"] for r in labels] == expected
        assert any(expected)
        assert any((r["rank"], r["domain"]) not in origins for r in labels)


class TestAnalyzeJoin:
    def test_each_row_bins_with_its_own_label(self, tmp_path):
        # www.a.test is rank 1's www variant and rank 2's base name, and live answers
        # may give its two rows different chains; only a join on (rank, variant,
        # domain) keeps each label with its own row
        out = tmp_path / "out"
        out.mkdir()
        pairs = [{"prefix": "10.0.0.0/24", "asn": 64500, "state": "valid"}]
        keys = [(1, "base", "a.test"), (1, "www", "www.a.test"), (2, "base", "www.a.test")]
        validated = [
            {"rank": rank, "variant": variant, "domain": domain, "pairs": pairs,
             "covered": 1.0, "class": "full"}
            for rank, variant, domain in keys
        ]
        labels = [
            {"rank": rank, "variant": variant, "domain": domain, "by_chain": by_chain}
            for (rank, variant, domain), by_chain in zip(keys, [False, True, False])
        ]
        for name, rows in (("validated.jsonl", validated), ("cdn_labels.jsonl", labels)):
            (out / name).write_text("".join(json.dumps(row) + "\n" for row in rows))
        cfg = dataclasses.replace(e2e_config(out), bin_size=1)
        assert run_stage("analyze", cfg) == 0

        def bin_lines(name):  # (bin_lo, n, cdn_fraction) of each bin
            lines = (out / name).read_text().splitlines()[1:]
            return [(c[0], c[2], c[-1]) for c in (line.split(",") for line in lines)]

        assert bin_lines("bins_www.csv") == [("1", "1", "1.000000"), ("2", "0", "")]
        assert bin_lines("cdn_bins_www.csv") == [("1", "1", "1.000000"), ("2", "0", "")]
        assert bin_lines("bins_base.csv") == [("1", "1", "0.000000"), ("2", "1", "0.000000")]
        assert bin_lines("cdn_bins_base.csv") == [("1", "0", ""), ("2", "0", "")]


def resolved_rows_like_e2e(e2e_output, count):
    """``count`` resolved.jsonl rows: the e2e rows repeated at ever higher ranks."""
    rows = [json.loads(line) for line in read(e2e_output / "resolved.jsonl").splitlines()]
    span = rows[-1]["rank"]
    copies = (dict(row, rank=row["rank"] + span * n) for n in itertools.count() for row in rows)
    return "".join(json.dumps(row) + "\n" for row in itertools.islice(copies, count))


def traced_peak(stage, cfg):
    """The peak bytes Python allocated while the stage ran."""
    tracemalloc.start()
    try:
        stage(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    def test_stage_peaks_do_not_grow_with_rows(self, e2e_output, tmp_path):
        peaks = {}
        for count in (2000, 8000):
            out = tmp_path / str(count)
            out.mkdir()
            shutil.copy(e2e_output / "resolve_meta.json", out)
            (out / "resolved.jsonl").write_text(resolved_rows_like_e2e(e2e_output, count))
            # one bin for every rank: the bins analyze writes grow with the ranks, by design
            cfg = dataclasses.replace(e2e_config(out), bin_size=10**9).validated()
            stages = (map_stage.run, validate.run, classify.run, analyze.run, report.run)
            peaks[count] = [traced_peak(stage, cfg) for stage in stages]
            assert len(read(out / "validated.jsonl").splitlines()) > count // 3
        for small, large in zip(peaks[2000], peaks[8000]):
            assert large < 1.25 * small, peaks

    def test_map_peak_does_not_grow_with_prefixes_hit(self, e2e_output, tmp_path):
        """Map keeps nothing per lookup: rows that hit 4x the prefixes cost no more."""
        from rpkiaudit import rib_store

        rng = random.Random(2)
        rib = tmp_path / "rib.mrt"
        rib.write_bytes(mrt_table(rng, 20_000))
        with open(rib, "rb") as dump:
            prefixes = sorted({route[:3] for route in rib_store.read_routes(dump)})
        rng.shuffle(prefixes)
        peaks, hit = {}, {}
        for count in (2000, 8000):
            out = tmp_path / str(count)
            out.mkdir()
            shutil.copy(e2e_output / "resolve_meta.json", out)
            rows = (
                {"addresses": [_prefix_index.format_address(
                    version, net | rng.getrandbits(_prefix_index.WIDTH[version] - plen))],
                 "cnames": [], "domain": f"site{rank}.test", "rank": rank,
                 "resolver": "fixture", "status": "ok", "ts": 1420070400, "variant": "base"}
                for rank, (version, net, plen) in enumerate(prefixes[:count], 1)
            )
            (out / "resolved.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
            cfg = dataclasses.replace(e2e_config(out), ribs=[str(rib)]).validated()
            peaks[count] = traced_peak(map_stage.run, cfg)
            pair_rows = [json.loads(line) for line in read(out / "pairs.jsonl").splitlines()]
            assert len(pair_rows) == count
            # pairs ascend by (version, net, plen, origin): the last is the prefix landed in
            hit[count] = len({p["prefix"] for row in pair_rows for p in row["pairs"][-1:]})
        assert hit[8000] > 3.9 * hit[2000], hit
        assert peaks[8000] < 1.25 * peaks[2000], peaks


def mrt_table(rng, count):
    """MRT bytes of ``count`` prefixes, 85% v4 (mostly /24) and 15% v6, 3 peers each."""
    records = [mb.peer_index_table((64500, 64501, 64502))]
    for _ in range(count):
        if rng.random() < 0.85:
            width, plen = 32, rng.choice([24] * 8 + [16, 20, 22, 23])
        else:
            width, plen = 128, rng.choice([32, 40, 44, 48, 48, 48])
        net = rng.getrandbits(width) >> (width - plen) << (width - plen)
        prefix = ipaddress.ip_network((net, plen))
        path = mb.as_path_attr(mb.path_segment(2, [64500, rng.randrange(1, 400_000)]))
        entries = [mb.rib_entry(mb.origin_attr() + path, peer) for peer in range(3)]
        records.append(mb.rib_record(str(prefix), entries))
    return b"".join(records)


def roa_csv(rng, count):
    """A CSV export of ``count`` VRPs, as a relying-party tool writes one."""
    lines = ["ASN,prefix,maxLength,TA"]
    for _ in range(count):
        v4 = rng.random() < 0.85
        width, plen = (32, rng.randint(16, 24)) if v4 else (128, rng.randint(29, 48))
        net = rng.getrandbits(width) >> (width - plen) << (width - plen)
        max_length = min(plen + rng.choice([0, 0, 0, 2, 4]), width)
        ta = rng.choice(["afrinic", "apnic", "arin", "lacnic", "ripe"])
        prefix = ipaddress.ip_network((net, plen))
        lines.append(f"AS{rng.randrange(1, 400_000)},{prefix},{max_length},{ta}")
    return "\n".join(lines) + "\n"


def registry_lines(rng, count, order):
    """An AS registry of ``count`` lines with distinct ASNs, sorted as text or shuffled."""
    asns = rng.sample(range(1, 400_000), count)
    lines = [f"AS{a}  ORG-{a} Example Networks {a % 97}\n" for a in asns]
    return "".join(sorted(lines) if order == "sorted" else lines)


class TestTableMemory:
    """Each table-sized structure costs a bounded number of bytes per table entry."""

    @pytest.mark.parametrize("count", [6_000, 20_000])
    def test_rib_index_bytes_per_prefix(self, count):
        from rpkiaudit import rib_store

        data = mrt_table(random.Random(count), count)
        tracemalloc.start()
        try:
            trie = rib_store.PrefixTrie()
            trie.add_routes(rib_store.read_routes(io.BytesIO(data)))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        prefixes = sum(1 for _ in trie._index)
        assert prefixes > 0.99 * count
        assert retained < 120 * prefixes, retained / prefixes

    @pytest.mark.parametrize("count", [6_000, 20_000])
    def test_rib_index_with_every_memo_bytes_per_prefix(self, count):
        from rpkiaudit import rib_store

        data = mrt_table(random.Random(count), count)
        tracemalloc.start()
        try:
            trie = rib_store.PrefixTrie()
            trie.add_routes(rib_store.read_routes(io.BytesIO(data)))
            trie.pairs()  # builds every memo, as build_trie does
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        prefixes = sum(1 for _ in trie._index)
        assert retained < 770 * prefixes, retained / prefixes

    def stage_inputs(self, e2e_output, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl"):
            shutil.copy(e2e_output / name, out)
        return out

    def test_validate_roa_index_bytes_per_vrp(self, e2e_output, tmp_path):
        count = 20_000
        roas = tmp_path / "roas.csv"
        roas.write_text(roa_csv(random.Random(1), count))
        out = self.stage_inputs(e2e_output, tmp_path)
        cfg = PipelineConfig(roas=str(roas), output_dir=str(out)).validated()
        peak = traced_peak(validate.run, cfg)
        assert peak < 300 * count, peak / count
        validate_diag = json.loads((out / "validate_diagnostics.json").read_text())
        assert "malformed_roa_rows" not in validate_diag

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_classify_registry_bytes_per_line(self, e2e_output, tmp_path, order):
        count = 25_000
        registry = tmp_path / "as_registry.txt"
        registry.write_text(registry_lines(random.Random(1), count, order))
        out = self.stage_inputs(e2e_output, tmp_path)
        cfg = PipelineConfig(as_registry=str(registry), output_dir=str(out)).validated()
        peak = traced_peak(classify.run, cfg)
        # The pass keeps a set of the ASNs seen: an int and a slot in a table that
        # grows fourfold, so up to about 160 B per line while it resizes.
        assert peak < 170 * count, peak / count
        assert (out / "cdn_labels.jsonl").exists()

    def test_map_holds_no_rib_text(self, e2e_output, tmp_path):
        """Comment lines that make a text RIB four times its bytes leave map's peak as is."""
        rng = random.Random(5)
        lines = [f"{ipaddress.ip_network((rng.getrandbits(24) << 8, 24))}|64500 "
                 f"{rng.randrange(1, 400_000)}\n" for _ in range(20_000)]
        texts = {
            "plain": "".join(lines),
            "padded": "".join(line + "#" + "x" * (3 * len(line) - 2) + "\n" for line in lines),
        }
        assert len(texts["padded"]) >= 4 * len(texts["plain"])
        peaks = {}
        for name, text in texts.items():
            rib = tmp_path / f"{name}.txt"
            rib.write_text(text)
            out = tmp_path / name
            out.mkdir()
            for artifact in ("resolved.jsonl", "resolve_meta.json"):
                shutil.copy(e2e_output / artifact, out)
            cfg = dataclasses.replace(e2e_config(out), ribs=[str(rib)]).validated()
            peaks[name] = traced_peak(map_stage.run, cfg)
        assert peaks["padded"] < 1.1 * peaks["plain"], peaks

    @pytest.mark.parametrize("indent", [None, 1], ids=["one-line", "indent-1"])
    def test_validate_json_export_peak_at_most_csv(self, e2e_output, tmp_path, indent):
        """The same VRPs cost validate no more as a json export than as csv: neither is held.

        Read into the ROA index as validate reads them, the json export peaks at or
        below the csv one.  The whole stage peaks later, while it validates pairs,
        where the collector's timing moves the peak by tens of KB either way; there
        the json run stays within 5% of the csv one (parsed whole, it was 3.6 times).
        """
        from rpkiaudit.roa_validation import RoaFormat, RoaIndex

        count = 20_000
        text = roa_csv(random.Random(1), count)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        items = [{"asn": asn, "prefix": prefix, "maxLength": int(max_length), "ta": ta}
                 for asn, prefix, max_length, ta in rows]
        exports = {
            RoaFormat.CSV: (text, cli._text_lines),
            RoaFormat.JSON: (json.dumps(items, indent=indent), cli._text_chunks),
        }
        load_peaks, stage_peaks = {}, {}
        for fmt, (body, read) in exports.items():
            work = tmp_path / fmt.value
            work.mkdir()
            roas = work / f"roas.{fmt.value}"
            roas.write_text(body)
            gc.collect()
            tracemalloc.start()
            try:
                index = RoaIndex.load(read(open(roas, "rb"), "ROA export"), fmt)
                load_peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(index) == count
            del index
            out = self.stage_inputs(e2e_output, work)
            gc.collect()
            stage_peaks[fmt] = traced_peak(
                validate.run, PipelineConfig(roas=str(roas), output_dir=str(out)).validated()
            )
            assert json.loads((out / "validate_diagnostics.json").read_text()) == {}
        assert load_peaks[RoaFormat.JSON] <= load_peaks[RoaFormat.CSV], load_peaks
        assert stage_peaks[RoaFormat.JSON] < 1.05 * stage_peaks[RoaFormat.CSV], stage_peaks

    def test_validate_builds_no_roa_payload(self, e2e_output, tmp_path, monkeypatch):
        from rpkiaudit import roa_validation

        built = []
        init = roa_validation.RoaPayload.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(roa_validation.RoaPayload, "__init__", counting)
        out = self.stage_inputs(e2e_output, tmp_path)
        assert run_stage("validate", e2e_config(out)) == 0
        assert read(out / "validated.jsonl") == read(e2e_output / "validated.jsonl")
        assert built == []


class TestMrtInputPath:
    """A compact pipeline run whose RIB input is real MRT bytes."""

    def test_map_sniffs_mrt(self, tmp_path):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,tiny.test\n")
        fixture = tmp_path / "dns.jsonl"
        fixture.write_text(
            json.dumps({"domain": "tiny.test", "resolver": "fixture", "a": ["93.184.216.34"]})
            + "\n"
            + json.dumps({"domain": "www.tiny.test", "resolver": "fixture", "a": ["93.184.216.34"]})
            + "\n"
        )
        rib = tmp_path / "rib.mrt"
        rib.write_bytes(
            mb.peer_index_table() + mb.simple_rib("93.184.216.0/24", [3320, 15133])
        )
        roas = tmp_path / "roas.csv"
        roas.write_text("AS15133,93.184.216.0/24,24\n")
        cfg = PipelineConfig(
            domain_list=str(domains),
            dns_fixture=str(fixture),
            ribs=[str(rib)],
            roas=str(roas),
            bin_size=10,
            output_dir=str(tmp_path / "out"),
        )
        for stage in ("resolve", "map", "validate"):
            assert run_stage(stage, cfg) == 0
        rows = [
            json.loads(line)
            for line in (tmp_path / "out" / "validated.jsonl").read_text().strip().split("\n")
        ]
        assert all(row["class"] == "full" for row in rows)
        assert rows[0]["pairs"] == [
            {"prefix": "93.184.216.0/24", "asn": 15133, "state": "valid"}
        ]


def cli_env():
    """The environment of a CLI child: this checkout's package first on its path."""
    env = dict(os.environ)
    src = str(Path(rpkiaudit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestInputText:
    """The per-line and per-chunk readers decode as the whole file does, and name its
    first undecodable bytes as decoding the whole file does."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([b"a", b"\n", "\u00e9".encode(), "\u20ac".encode(),
                                  "\U0001f600".encode(), b"\xff", b"\x80", b"\xe2\x82",
                                  b"\xf0\x9f"]), max_size=12),
        st.sampled_from([1, 2, 3, 5, 64]),
    )
    def test_chunks_and_lines_decode_as_the_whole_file(self, tmp_path_factory, parts, chunk):
        path = tmp_path_factory.mktemp("text") / "input.txt"
        path.write_bytes(b"".join(parts))

        def decoded(read):
            try:
                return "".join(read())
            except DataError as exc:  # names the byte's position in the whole file
                return f"DataError: {exc}"

        try:
            whole = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            whole = f"DataError: {path}: ROA export is not UTF-8 text ({exc})"
        assert decoded(lambda: cli._text_lines(open(path, "rb"), "ROA export")) == whole
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert decoded(lambda: cli._text_chunks(open(path, "rb"), "ROA export")) == whole


class TestInputPaths:
    """An input path that cannot be read exits 2 naming it; a pipe is read as a file is."""

    @pytest.mark.parametrize("stage, flag", [
        ("map", "--rib"), ("validate", "--roas"), ("classify", "--as-registry"),
        ("resolve", "--domain-list"), ("resolve", "--fixture-dns"), ("analyze", "--config"),
    ])
    def test_directory_input_is_2(self, e2e_output, tmp_path, stage, flag):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl"):
            shutil.copy(e2e_output / name, out)
        directory = tmp_path / "a-directory"
        directory.mkdir()
        inputs = {  # every other input the stage needs; --rib appends, so map gets none
            "resolve": ["--domain-list", E2E_DIR / "domains.csv",
                        "--fixture-dns", E2E_DIR / "dns.jsonl"],
        }.get(stage, [])
        result = run_cli(stage, *inputs, flag, directory, "--output-dir", out)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "cannot read" in result.stderr and str(directory) in result.stderr

    @pytest.mark.skipif(os.geteuid() == 0, reason="root opens a file whatever its mode")
    def test_input_without_read_permission_is_2(self, e2e_output, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "pairs.jsonl", out)
        roas = tmp_path / "roas.csv"
        shutil.copy(E2E_DIR / "roas.csv", roas)
        roas.chmod(0)
        result = run_cli("validate", "--roas", roas, "--output-dir", out)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert str(roas) in result.stderr

    @pytest.mark.parametrize("form", ["text", "mrt", "gzip-mrt"])
    def test_rib_from_a_pipe_maps_as_from_a_file(self, e2e_output, tmp_path, form):
        """The pipe hands over 5 bytes first: too few to tell MRT from text by a peek."""
        if form == "text":
            data = (E2E_DIR / "rib.txt").read_bytes()
        else:
            records = [mb.simple_rib(f"93.184.{i}.0/24", [3320, 15133]) for i in range(64)]
            data = mb.peer_index_table() + b"".join(records)
            data = gzip.compress(data) if form == "gzip-mrt" else data
        rib = tmp_path / "rib.dump"
        rib.write_bytes(data)
        pairs = {}
        for source in ("file", "pipe"):
            out = tmp_path / source
            out.mkdir()
            for name in ("resolved.jsonl", "resolve_meta.json"):
                shutil.copy(e2e_output / name, out)
            argv = [sys.executable, "-m", "rpkiaudit", "map", "--output-dir", str(out),
                    "--rib", str(rib) if source == "file" else "/dev/stdin"]
            child = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, env=cli_env())
            if source == "pipe":
                child.stdin.write(data[:5])
                child.stdin.flush()
                time.sleep(0.2)
                child.stdin.write(data[5:])
            _, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr.decode()
            pairs[source] = read(out / "pairs.jsonl")
        assert pairs["pipe"] == pairs["file"]
        if form == "text":
            assert pairs["pipe"] == read(e2e_output / "pairs.jsonl")


def run_cli(*args, dev=False):
    """Run the CLI in a child process, so an uncaught error shows as a traceback; ``dev``
    runs it under ``python -X dev``, which also warns of each file left unclosed."""
    return subprocess.run(
        [sys.executable, *(["-X", "dev"] if dev else []), "-m", "rpkiaudit", *map(str, args)],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )


# (a pairs.jsonl pair, the fault validate names for it): a pair's ASN must be a
# plain int in 0..2**32-1, never a bool, and its prefix text a prefix without host bits
PAIR_FAULTS = [
    ({"prefix": "192.0.2.0/24", "asn": True},
     "TypeError: origin_asn must be a plain ASN, not True"),
    ({"prefix": "192.0.2.0/24", "asn": "64500"},
     "TypeError: origin_asn must be a plain ASN, not '64500'"),
    ({"prefix": "192.0.2.0/24", "asn": 1.5}, "TypeError: origin_asn must be a plain ASN, not 1.5"),
    ({"prefix": "192.0.2.0/24", "asn": None},
     "TypeError: origin_asn must be a plain ASN, not None"),
    ({"prefix": "192.0.2.0/24", "asn": -1}, "ValueError: ASN -1 out of range"),
    ({"prefix": "192.0.2.0/24", "asn": 2**32}, "ValueError: ASN 4294967296 out of range"),
    ({"prefix": "192.0.2.0/24"}, "KeyError: 'asn'"),
    ({"prefix": "10.0.0.1/8", "asn": 64500}, "ValueError: 10.0.0.1/8 has host bits set"),
    ({"prefix": "nope", "asn": 64500},
     "ValueError: 'nope' does not appear to be an IPv4 or IPv6 network"),
    ({"prefix": 5, "asn": 64500}, "TypeError: prefix 5 is not text"),
]
PAIR_FAULT_IDS = [
    "asn_true", "asn_text", "asn_float", "asn_null", "asn_negative", "asn_2_32", "no_asn",
    "prefix_host_bits", "prefix_nope", "prefix_int",
]


# (prefix, asn) of a validated.jsonl pair that analyze and report reject
VALIDATED_PAIR_FAULTS = [(5, 64500), (None, 64500), ("192.0.2.0/24", "x"), ("192.0.2.0/24", True)]
VALIDATED_PAIR_FAULT_IDS = ["prefix_int", "prefix_null", "asn_text", "asn_true"]


def one_pair(pair):
    return lambda row: dict(row, pairs=[pair])


# (stage, artifact, damage to one row of the artifact): each exits 3 and names the row
ROW_DAMAGE = [
    ("map", "resolve_meta.json", lambda row: {}),
    ("map", "resolve_meta.json", lambda row: [row]),
    ("map", "resolve_meta.json", lambda row: dict(row, primary_resolver=5)),
    ("classify", "resolve_meta.json", lambda row: dict(row, primary_resolver="nope")),
    ("map", "resolved.jsonl", lambda row: without(row, "addresses")),
    ("map", "resolved.jsonl", lambda row: [1, 2]),
    ("map", "resolved.jsonl", lambda row: dict(row, addresses=["nope"])),
    ("map", "resolved.jsonl", lambda row: dict(row, addresses=[5])),
    ("map", "resolved.jsonl", lambda row: dict(row, addresses=[None])),
    ("map", "resolved.jsonl", lambda row: dict(row, addresses=None)),
    ("map", "resolved.jsonl", lambda row: dict(row, rank=-3)),
    ("map", "resolved.jsonl", lambda row: dict(row, domain=5)),
    ("validate", "pairs.jsonl", lambda row: without(row, "domain")),
    ("validate", "pairs.jsonl", lambda row: without(row, "rank")),
    ("validate", "pairs.jsonl", lambda row: without(row, "variant")),
    ("validate", "pairs.jsonl", lambda row: dict(row, pairs=None)),
    ("classify", "pairs.jsonl", lambda row: without(row, "domain")),
    ("classify", "resolved.jsonl", lambda row: without(row, "cnames")),
    ("classify", "resolved.jsonl", lambda row: without(row, "status")),
    ("classify", "resolved.jsonl", lambda row: without(row, "domain")),
    ("classify", "resolved.jsonl", lambda row: dict(row, cnames=5)),
    ("classify", "resolved.jsonl", lambda row: dict(row, domain=5)),
    ("analyze", "cdn_labels.jsonl", lambda row: without(row, "by_chain")),
    ("analyze", "validated.jsonl", lambda row: without(row, "domain")),
    ("analyze", "validated.jsonl", lambda row: without(row, "rank")),
    ("analyze", "validated.jsonl", lambda row: dict(row, variant="foo")),
    ("analyze", "validated.jsonl", lambda row: dict(row, pairs=5)),
    ("analyze", "validated.jsonl", lambda row: dict(row, rank="x")),
    ("analyze", "validated.jsonl", lambda row: dict(row, rank=0)),
    ("analyze", "validated.jsonl", lambda row: dict(row, rank=True)),
    ("report", "validated.jsonl", lambda row: without(row, "rank")),
    ("report", "validated.jsonl", lambda row: without(row, "domain")),
    ("report", "validated.jsonl", lambda row: dict(row, pairs=5)),
    ("report", "validated.jsonl", lambda row: dict(row, variant="foo")),
    ("report", "validated.jsonl", lambda row: dict(row, domain=5)),
    ("report", "validated.jsonl", lambda row: dict(row, domain=5, variant="www")),
    *(("validate", "pairs.jsonl", one_pair(pair)) for pair, _ in PAIR_FAULTS),
    # fields classify and analyze read but no other stage checks
    *(("classify", "resolved.jsonl", lambda row, cnames=cnames: dict(row, cnames=cnames))
      for cnames in ("ab", [1, 2], [None, None], {"a": 1, "b": 2})),
    *(("classify", "resolved.jsonl", lambda row, status=status: dict(row, status=status))
      for status in (5, "OK", None)),
    *(("classify", "pairs.jsonl", one_pair({"prefix": "93.184.216.0/24", "asn": asn}))
      for asn in ("15133", True, 1.5, None)),
    ("analyze", "cdn_labels.jsonl", lambda row: dict(row, by_chain="false")),
    # a validated.jsonl pair's prefix must be text and its asn a plain ASN
    *((stage, "validated.jsonl", one_pair(dict(prefix=prefix, asn=asn, state="valid")))
      for stage in ("analyze", "report") for prefix, asn in VALIDATED_PAIR_FAULTS),
]
ROW_DAMAGE_IDS = [
    "meta_empty", "meta_not_object", "meta_primary_unlisted",
    "meta_primary_unlisted_classify", "no_addresses", "row_not_object",
    "bad_address", "int_address", "null_address", "null_addresses", "resolved_rank_negative",
    "resolved_domain_int",
    "pairs_no_domain_validate", "pairs_no_rank", "pairs_no_variant", "pairs_null",
    "pairs_no_domain", "resolved_no_cnames", "resolved_no_status",
    "resolved_no_domain", "resolved_cnames_int", "resolved_domain_int_classify",
    "labels_no_by_chain",
    "validated_no_domain", "validated_no_rank", "validated_bad_variant",
    "validated_pairs_int", "validated_rank_text", "validated_rank_zero",
    "validated_rank_bool", "report_no_rank", "report_no_domain", "report_pairs_int",
    "report_bad_variant", "report_domain_int", "report_www_domain_int",
    *(f"pairs_{name}" for name in PAIR_FAULT_IDS),
    "resolved_cnames_text", "resolved_cnames_ints", "resolved_cnames_nulls",
    "resolved_cnames_object", "resolved_status_int", "resolved_status_upper",
    "resolved_status_null", "classify_pairs_asn_text", "classify_pairs_asn_true",
    "classify_pairs_asn_float", "classify_pairs_asn_null", "labels_by_chain_text",
    *(f"{stage}_validated_{name}" for stage in ("analyze", "report")
      for name in VALIDATED_PAIR_FAULT_IDS),
]

# stage -> (the artifacts it reads, the input flags it needs)
STAGE_IO = {
    "resolve": ([], ["--domain-list", E2E_DIR / "domains.csv",
                     "--fixture-dns", E2E_DIR / "dns.jsonl"]),
    "map": (["resolved.jsonl", "resolve_meta.json"], ["--rib", E2E_DIR / "rib.txt"]),
    "validate": (["pairs.jsonl"], ["--roas", E2E_DIR / "roas.csv"]),
    "classify": (["resolved.jsonl", "resolve_meta.json", "pairs.jsonl"],
                 ["--as-registry", E2E_DIR / "as_registry.txt"]),
    "analyze": (["validated.jsonl", "cdn_labels.jsonl"], []),
    "report": (["validated.jsonl"], []),
}


def exits_3_on_damaged_row(e2e_output, tmp_path, stage, artifact, damage, first):
    """Damage the first or last full row of an artifact and run the stage on it.

    The stage must exit 3 naming the artifact and the row's domain, and leave
    nothing in its output directory but its inputs: no artifact, no temp file.
    """
    needs, inputs = STAGE_IO[stage]
    out = tmp_path / "out"
    out.mkdir()
    for name in needs:
        shutil.copy(e2e_output / name, out)
    rows = [json.loads(line) for line in read(e2e_output / artifact).splitlines()]
    # a row the stage reads in full: the primary resolver's, with addresses
    full = [i for i, r in enumerate(rows)
            if r.get("resolver", "fixture") == "fixture" and r.get("addresses", True)]
    at = full[0] if first else full[-1]
    rows[at] = damage(rows[at])
    (out / artifact).write_text("".join(json.dumps(r) + "\n" for r in rows))
    result = run_cli(stage, *inputs, "--output-dir", out)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert artifact in result.stderr
    if isinstance(rows[at], dict) and "domain" in rows[at]:
        assert str(rows[at]["domain"]) in result.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted(needs)


class TestCorruptInputs:
    def test_malformed_special_purpose_table_is_3(self, tmp_path):
        table = tmp_path / "special.txt"
        table.write_text("10.0.0.0/8\nnot-a-prefix\n")
        result = run_cli(
            "resolve",
            "--domain-list", E2E_DIR / "domains.csv",
            "--fixture-dns", E2E_DIR / "dns.jsonl",
            "--special-purpose-table", table,
            "--output-dir", tmp_path / "out",
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert f"{table}:2" in result.stderr

    @pytest.mark.parametrize("damage", ["truncated", "non_utf8"])
    def test_corrupt_resolved_artifact_is_3(self, e2e_output, tmp_path, damage):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "resolve_meta.json", out)
        rows = (e2e_output / "resolved.jsonl").read_bytes()
        at = rows.index(b"\n", len(rows) // 2) + 20  # 20 bytes into a row
        bad = rows[:at] if damage == "truncated" else rows[:at] + b"\xff" + rows[at:]
        (out / "resolved.jsonl").write_bytes(bad)
        result = run_cli("map", "--rib", E2E_DIR / "rib.txt", "--output-dir", out)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        line = rows[:at].count(b"\n") + 1
        assert f"resolved.jsonl:{line}" in result.stderr
        assert not (out / "pairs.jsonl").exists()

    @pytest.mark.parametrize("damage", ["gzip_text", "non_utf8_text", "cut_gzip_mrt"])
    def test_unreadable_rib_is_3(self, e2e_output, tmp_path, damage):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json"):
            shutil.copy(e2e_output / name, out)
        text = (E2E_DIR / "rib.txt").read_bytes()
        if damage == "gzip_text":
            rib, data = tmp_path / "rib.txt.gz", gzip.compress(text)
        elif damage == "non_utf8_text":
            rib, data = tmp_path / "rib.txt", text[:40] + b"\xff" + text[40:]
        else:
            records = [mb.simple_rib(f"93.184.{i}.0/24", [3320, 15133]) for i in range(64)]
            mrt = gzip.compress(mb.peer_index_table() + b"".join(records))
            rib, data = tmp_path / "rib.mrt.gz", mrt[:-12]
        rib.write_bytes(data)
        result = run_cli("map", "--rib", rib, "--output-dir", out)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert str(rib) in result.stderr
        assert not (out / "pairs.jsonl").exists()

    @pytest.mark.parametrize("stage", ["analyze", "report"])
    @pytest.mark.parametrize("damage", ["conflicting_states", "unknown_state"])
    def test_bad_validated_row_is_3(self, e2e_output, tmp_path, stage, damage):
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "cdn_labels.jsonl", out)
        rows = [json.loads(line) for line in read(e2e_output / "validated.jsonl").splitlines()]
        row = next(r for r in rows if r["pairs"])
        first = row["pairs"][0]
        if damage == "conflicting_states":
            other = "invalid" if first["state"] != "invalid" else "valid"
            row["pairs"].append(dict(first, state=other))
        else:
            first["state"] = "bogus"
        (out / "validated.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        result = run_cli(stage, "--output-dir", out)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "validated.jsonl" in result.stderr
        assert row["domain"] in result.stderr

    @pytest.mark.parametrize(
        "field, value",
        [
            ("prefix", "10.0.0.1/8"),
            ("prefix", "not-a-prefix"),
            ("prefix", 5),
            ("asn", "AS15133"),
            ("asn", -1),
            ("asn", 2**32),
            ("asn", True),
        ],
    )
    def test_bad_pairs_row_is_3(self, e2e_output, tmp_path, field, value):
        out = tmp_path / "out"
        out.mkdir()
        rows = [json.loads(line) for line in read(e2e_output / "pairs.jsonl").splitlines()]
        row = next(r for r in rows if r["pairs"])
        row["pairs"][0][field] = value
        (out / "pairs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        result = run_cli("validate", "--roas", E2E_DIR / "roas.csv", "--output-dir", out)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert "pairs.jsonl" in result.stderr
        assert row["domain"] in result.stderr
        assert not (out / "validated.jsonl").exists()

    @pytest.mark.parametrize("pair, fault", PAIR_FAULTS, ids=PAIR_FAULT_IDS)
    def test_bad_pair_names_its_fault(self, e2e_output, tmp_path, pair, fault):
        out = tmp_path / "out"
        out.mkdir()
        rows = [json.loads(line) for line in read(e2e_output / "pairs.jsonl").splitlines()]
        rows[0] = one_pair(pair)(rows[0])
        (out / "pairs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(DataError) as info:
            run_stage("validate", e2e_config(out))
        assert f"pairs.jsonl: {rows[0]['domain']}: corrupt artifact ({fault})" in str(info.value)

    @pytest.mark.parametrize(
        "stage, flag, source",
        [
            ("resolve", "--domain-list", E2E_DIR / "domains.csv"),
            ("resolve", "--fixture-dns", E2E_DIR / "dns.jsonl"),
            ("resolve", "--special-purpose-table", PACKAGE_DATA / "special_purpose.txt"),
            ("validate", "--roas", E2E_DIR / "roas.csv"),
            ("classify", "--as-registry", E2E_DIR / "as_registry.txt"),
            ("classify", "--keywords", PACKAGE_DATA / "cdn_keywords.txt"),
            ("classify", "--external-labels", E2E_DIR / "external_labels.csv"),
        ],
    )
    def test_non_utf8_input_is_3(self, e2e_output, tmp_path, stage, flag, source):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl"):
            shutil.copy(e2e_output / name, out)
        text = source.read_bytes()
        bad = tmp_path / source.name
        bad.write_bytes(text[:20] + b"\xff" + text[20:])
        inputs = {  # every input the stage needs; the flag after them wins
            "resolve": ["--domain-list", E2E_DIR / "domains.csv",
                        "--fixture-dns", E2E_DIR / "dns.jsonl"],
            "validate": ["--roas", E2E_DIR / "roas.csv"],
            "classify": ["--as-registry", E2E_DIR / "as_registry.txt"],
        }[stage]
        result = run_cli(stage, *inputs, flag, bad, "--output-dir", out)
        assert result.returncode == 3
        with pytest.raises(UnicodeDecodeError) as decoding:
            bad.read_bytes().decode("utf-8")
        what = INPUT_NAMES[flag]
        assert result.stderr == f"error: {bad}: {what} is not UTF-8 text ({decoding.value})\n"

    @pytest.mark.parametrize("stage, artifact, damage", ROW_DAMAGE, ids=ROW_DAMAGE_IDS)
    def test_malformed_artifact_row_is_3(self, e2e_output, tmp_path, stage, artifact, damage):
        exits_3_on_damaged_row(e2e_output, tmp_path, stage, artifact, damage, first=True)

    @pytest.mark.parametrize("stage, artifact, damage", ROW_DAMAGE, ids=ROW_DAMAGE_IDS)
    def test_malformed_last_artifact_row_is_3(self, e2e_output, tmp_path, stage, artifact, damage):
        # the rows before it have already been streamed to the stage's temp file
        exits_3_on_damaged_row(e2e_output, tmp_path, stage, artifact, damage, first=False)

    @pytest.mark.parametrize("stage, artifact", [
        ("map", "resolved.jsonl"), ("validate", "pairs.jsonl"), ("classify", "resolved.jsonl"),
        ("classify", "pairs.jsonl"), ("analyze", "validated.jsonl"),
        ("analyze", "cdn_labels.jsonl"), ("report", "validated.jsonl"),
    ])
    @pytest.mark.parametrize("damage", ["swapped", "repeated"])
    def test_artifact_rows_out_of_order_are_3(self, e2e_output, tmp_path, stage, artifact, damage):
        needs, inputs = STAGE_IO[stage]
        out = tmp_path / "out"
        out.mkdir()
        for name in needs:
            shutil.copy(e2e_output / name, out)
        lines = read(e2e_output / artifact).splitlines(keepends=True)
        at = len(lines) // 2
        if damage == "swapped":
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        else:
            lines.insert(at + 1, lines[at])
        (out / artifact).write_bytes(b"".join(lines))
        result = run_cli(stage, *inputs, "--output-dir", out)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert artifact in result.stderr
        assert "out of order or repeated" in result.stderr
        assert json.loads(lines[at + 1])["domain"] in result.stderr  # the row out of place
        assert sorted(p.name for p in out.iterdir()) == sorted(needs)

    @pytest.mark.parametrize(
        "stage, flag, name, key, extra",
        [
            ("validate", "--roas", "roas.csv", "malformed_roa_rows",
             b"AS64500,10.0.0.0/8," + b"8" * 131_073 + b",ripe\n"),
            ("validate", "--roas", "roas.csv", "malformed_roa_rows",
             b'AS64500,"' + b"1" * 131_073 + b'",8\n'),
            ("validate", "--roas", "roas.csv", "malformed_roa_rows", b"AS64500,10.0.0.0/8\r8\n"),
            ("classify", "--as-registry", "as_registry.txt", "malformed_registry_lines",
             b"64500," + b"x" * 131_073 + b"\n"),
            ("classify", "--as-registry", "as_registry.txt", "malformed_registry_lines",
             b"64500,Example\rNetworks\n"),
        ],
        ids=["roa-long-field", "roa-long-quoted-field", "roa-bare-cr",
             "registry-long-field", "registry-bare-cr"],
    )
    def test_row_the_csv_module_cannot_read_is_counted(
        self, e2e_output, tmp_path, stage, flag, name, key, extra
    ):
        """A csv.Error is one malformed row: the stage counts it and reads on."""
        out = tmp_path / "out"
        out.mkdir()
        for artifact in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl"):
            shutil.copy(e2e_output / artifact, out)
        text = (E2E_DIR / name).read_bytes()
        head, _, tail = text.partition(b"\n")  # the bad row is the second line, before the rest
        source = tmp_path / name
        source.write_bytes(head + b"\n" + extra + tail)
        labels = ["--external-labels", E2E_DIR / "external_labels.csv"]  # as e2e_output had
        result = run_cli(stage, flag, source, *labels, "--output-dir", out)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        diag = json.loads((out / f"{stage}_diagnostics.json").read_text())
        expected = json.loads((e2e_output / f"{stage}_diagnostics.json").read_text())
        expected[key] = expected.get(key, 0) + 1
        assert diag == expected
        artifact = {"validate": "validated.jsonl", "classify": "cdn_labels.jsonl"}[stage]
        assert read(out / artifact) == read(e2e_output / artifact)

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, '[{"asn": 1' + "0" * 5000 + ', "prefix": "10.0.0.0/8"}]'],
        ids=["deep-nesting", "long-number"],
    )
    def test_undecodable_json_roa_export_is_counted(self, e2e_output, tmp_path, text):
        """Deep nesting and a number over the int-conversion limit are one malformed document."""
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(e2e_output / "pairs.jsonl", out)
        source = tmp_path / "roas.json"
        source.write_text(text)
        result = run_cli("validate", "--roas", source, "--output-dir", out)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        diag = json.loads((out / "validate_diagnostics.json").read_text())
        assert diag == {"empty_roa_set": 1, "malformed_roa_rows": 1}

    @pytest.mark.parametrize("text", ["", "# comments only\n\n   # and blanks\n"])
    def test_keyword_file_without_tokens_is_3(self, e2e_output, tmp_path, text):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl"):
            shutil.copy(e2e_output / name, out)
        keywords = tmp_path / "keywords.txt"
        keywords.write_text(text)
        result = run_cli(
            "classify",
            "--as-registry", E2E_DIR / "as_registry.txt",
            "--keywords", keywords,
            "--output-dir", out,
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert str(keywords) in result.stderr
        assert not (out / "cdn_labels.jsonl").exists()

    def test_failed_write_keeps_old_artifact(self, tmp_path):
        path = tmp_path / "artifact.txt"
        _write_text(path, "complete\n")
        with pytest.raises(UnicodeEncodeError):
            _write_text(path, "half written \ud800")  # fails mid-write
        assert path.read_text() == "complete\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

        rows_path = tmp_path / "artifact.jsonl"
        assert cli._write_rows(rows_path, ({"n": n} for n in range(3))) == 3

        def rows():
            for n in range(6):
                if n == 3:
                    raise DataError("a fault halfway through the rows")
                yield {"n": n}

        with pytest.raises(DataError):
            cli._write_rows(rows_path, rows())
        assert rows_path.read_text() == '{"n":0}\n{"n":1}\n{"n":2}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.jsonl", "artifact.txt"]


def entries(directory):
    """Each entry of a directory by name: a file's bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in directory.iterdir()}


class TestUnusablePaths:
    """A path a stage reads or writes that cannot be opened exits 2 naming it: no
    traceback, no file left unclosed, no temp file left and no artifact replaced."""

    @pytest.mark.parametrize(
        "stage, artifact",
        [(stage, name) for stage, (needs, _) in STAGE_IO.items() for name in needs],
    )
    def test_directory_at_upstream_artifact_is_2(self, e2e_output, tmp_path, stage, artifact):
        needs, inputs = STAGE_IO[stage]
        out = tmp_path / "out"
        out.mkdir()
        for name in ALL_ARTIFACTS:  # the stage's own outputs among them, each stale
            if name in needs:
                shutil.copy(e2e_output / name, out)
            else:
                (out / name).write_text("stale\n")
        (out / artifact).unlink()
        (out / artifact).mkdir()
        before = entries(out)
        result = run_cli(stage, *inputs, "--output-dir", out, dev=True)
        assert result.returncode == 2, result.stderr
        assert f"cannot read artifact {out / artifact}: Is a directory" in result.stderr
        assert "Traceback" not in result.stderr and "ResourceWarning" not in result.stderr
        assert entries(out) == before

    @pytest.mark.parametrize("stage, artifact", [
        ("resolve", "resolved.jsonl"), ("map", "pairs.jsonl"), ("validate", "validated.jsonl"),
        ("classify", "cdn_labels.jsonl"),
    ])
    def test_directory_at_output_is_2(self, e2e_output, tmp_path, stage, artifact):
        needs, inputs = STAGE_IO[stage]
        out = tmp_path / "out"
        out.mkdir()
        for name in needs:
            shutil.copy(e2e_output / name, out)
        (out / artifact).mkdir()
        result = run_cli(stage, *inputs, "--output-dir", out, dev=True)
        assert result.returncode == 2, result.stderr
        assert f"cannot write {out / artifact}: Is a directory" in result.stderr
        assert "Traceback" not in result.stderr and "ResourceWarning" not in result.stderr
        assert entries(out) == {name: read(e2e_output / name) for name in needs} | {artifact: None}

    @pytest.mark.parametrize("order", ["in_turn", "reversed"])
    def test_output_dir_under_a_file_is_2(self, tmp_path, order):
        """Reversed, the fixture is out of turn order from its second line on, so
        resolve makes its merge sort's directory before it writes any artifact."""
        fixture = E2E_DIR / "dns.jsonl"
        if order == "reversed":
            fixture = tmp_path / "dns.jsonl"
            fixture.write_text("".join(line + "\n" for line in reversed(E2E_FIXTURE_LINES)))
        not_a_dir = tmp_path / "not-a-dir"
        not_a_dir.write_text("a file\n")
        out = not_a_dir / "out"
        result = run_cli("resolve", "--domain-list", E2E_DIR / "domains.csv",
                         "--fixture-dns", fixture, "--output-dir", out, dev=True)
        assert result.returncode == 2, result.stderr
        assert f"cannot write {out}" in result.stderr and "Not a directory" in result.stderr
        assert "Traceback" not in result.stderr and "ResourceWarning" not in result.stderr
        assert ("external merge sort" in result.stderr) == (order == "reversed")
        assert not_a_dir.read_text() == "a file\n"


class TestAgreementFile:
    """agreement.json is classify's only when the run has usable external labels."""

    @pytest.mark.parametrize("labels", [None, "not a label line\n"], ids=["none", "malformed"])
    def test_rerun_without_usable_labels_removes_it(self, e2e_output, tmp_path, labels):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl", "agreement.json"):
            shutil.copy(e2e_output / name, out)
        cfg = e2e_config(out)
        cfg.external_labels = None
        if labels is not None:
            cfg.external_labels = str(tmp_path / "labels.csv")
            Path(cfg.external_labels).write_text(labels)
        assert run_stage("classify", cfg) == 0
        assert not (out / "agreement.json").exists()
        rows = [json.loads(line) for line in read(out / "cdn_labels.jsonl").splitlines()]
        assert rows and all(row["external"] is None for row in rows)

    def test_agreement_that_cannot_be_removed_is_2(self, e2e_output, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("resolved.jsonl", "resolve_meta.json", "pairs.jsonl"):
            shutil.copy(e2e_output / name, out)
        (out / "agreement.json").mkdir()
        cfg = e2e_config(out)
        cfg.external_labels = None
        with pytest.raises(PathError, match=re.escape(f"cannot write {out / 'agreement.json'}: ")):
            run_stage("classify", cfg)


def read_jsonl_by_line(path):
    """The artifact reader's per-line loop: the reference for what it accepts and says."""
    rows = []
    for lineno, line in enumerate(path.read_bytes().split(b"\n"), 1):
        if line.strip():
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: corrupt artifact ({exc})")
            if not isinstance(row, dict):
                raise DataError(f"{path}:{lineno}: corrupt artifact (row is not an object)")
            rows.append(row)
    return rows


def outcome(read, path):
    try:
        return "rows", read(path)
    except DataError as exc:
        return "error", str(exc)


JSONL_CASES = {
    "canonical": b'{"a":1}\n{"b":[2,"x"]}\n',
    "no final newline": b'{"a":1}\n{"b":2}',
    "empty": b"",
    "truncated row": b'{"a":1}\n{"b":',
    "non-utf8 byte": b'{"a":1}\n{"b":"\xff"}\n',
    "array row": b'{"a":1}\n[1,2]\n',
    "number row": b"7\n",
    "null row": b'{"a":1}\nnull\n',
    "blank lines": b'\n{"a":1}\n\n\n{"b":2}\n\n',
    "whitespace-only lines": b'{"a":1}\n   \n\t\n\x0b\n{"b":2}\n',
    "crlf endings": b'{"a":1}\r\n{"b":2}\r\n',
    "padded row": b' {"a":1} \n',
    "trailing garbage": b'{"a":1}x\n{"b":2}\n',
    "trailing garbage after space": b'{"a":1} ,\n',
    "two objects on a line": b'{"a":1}{"b":2}\n',
    "two objects spaced": b'{"a":1} {"b":2}\n',
    "row split over two lines": b'{"a":\n1}\n',
    "object split at a comma": b'{"a":1,\n"b":2}\n',
    "utf-8 bom": b'\xef\xbb\xbf{"a":1}\n',
    "raw control character": b'{"a":"x\ty"}\n',
    "unicode text": '{"a":"\u00e9\u2028z"}\n'.encode("utf-8"),
    "duplicate keys": b'{"a":1,"a":2}\n',
}


DEEP = b"[" * 200_000 + b"]" * 200_000  # nested past any recursion limit


def read_jsonl(path):
    return list(cli._jsonl_rows(path))


class TestJsonlReader:
    """The streamed reader yields what the per-line loop returns, or raises its text."""

    @pytest.mark.parametrize("case", sorted(JSONL_CASES))
    def test_matches_the_per_line_loop(self, tmp_path, case):
        path = tmp_path / "artifact.jsonl"
        path.write_bytes(JSONL_CASES[case])
        assert outcome(read_jsonl, path) == outcome(read_jsonl_by_line, path)

    @given(
        st.lists(
            st.sampled_from(
                ['{"a":1}', '{"b":[1,{"c":null}]}', "", " ", "\r", "[]", "3", '{"a":', "}",
                 '{"a":1}{"b":2}', '{"a":1} ', '"s"', "\t{}", "{}", '{"\u00e9":"\\n"}']
            ),
            max_size=8,
        ),
        st.booleans(),
    )
    def test_random_line_mixes_match_the_per_line_loop(self, tmp_path_factory, lines, final):
        path = tmp_path_factory.mktemp("jsonl") / "artifact.jsonl"
        path.write_bytes(("\n".join(lines) + ("\n" if final else "")).encode("utf-8"))
        assert outcome(read_jsonl, path) == outcome(read_jsonl_by_line, path)

    def test_artifacts_are_read_in_one_pass(self, e2e_output, monkeypatch):
        def refuse(path, lineno, line):
            raise AssertionError(f"{path}:{lineno} fell back to the per-line parse")

        monkeypatch.setattr(cli, "_line_row", refuse)
        for name in ("resolved.jsonl", "pairs.jsonl", "validated.jsonl", "cdn_labels.jsonl"):
            path = e2e_output / name
            assert read_jsonl(path) == read_jsonl_by_line(path), name

    @pytest.mark.parametrize("row", [b'{"a":' + DEEP + b"}", DEEP], ids=["object", "array"])
    def test_row_nested_too_deep_is_3(self, e2e_output, tmp_path, row):
        """The one-object path and the per-line parse both name the line of the row."""
        out = tmp_path / "out"
        out.mkdir()
        lines = (e2e_output / "pairs.jsonl").read_bytes().splitlines(keepends=True)
        lines.insert(2, row + b"\n")
        (out / "pairs.jsonl").write_bytes(b"".join(lines))
        result = run_cli("validate", "--roas", E2E_DIR / "roas.csv", "--output-dir", out)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        assert f"pairs.jsonl:3: corrupt artifact" in result.stderr
        assert not (out / "validated.jsonl").exists()

    def test_rows_before_a_corrupt_line_are_yielded_first(self, tmp_path):
        path = tmp_path / "artifact.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}\n{"c":')
        rows = cli._jsonl_rows(path)
        assert next(rows) == {"a": 1}
        assert next(rows) == {"b": 2}
        with pytest.raises(DataError, match="artifact.jsonl:3: corrupt artifact"):
            next(rows)


# ---------------------------------------------------------------------------
# DNS fixture replay: streamed in the domain list's order, or sorted into it

RESOLVE_ARTIFACTS = ("resolved.jsonl", "resolve_meta.json", "resolve_diagnostics.json")


class WarningLog(logging.Handler):
    """The warnings the rpkiaudit logger emits while the block runs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        logging.getLogger("rpkiaudit").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("rpkiaudit").removeHandler(self)


def fallbacks(messages):
    return [m for m in messages if "external merge sort" in m]


def resolve_outcome(domains, fixture, out):
    """resolve's exit code, its artifacts (None where absent) and the fallback warnings."""
    with WarningLog() as messages:
        code = main([
            "resolve", "--domain-list", str(domains), "--fixture-dns", str(fixture),
            "--primary-resolver", "fixture", "--output-dir", str(out),
        ])
    artifacts = {name: read(out / name) if (out / name).exists() else None
                 for name in RESOLVE_ARTIFACTS}
    return code, artifacts, fallbacks(messages)


def whole_file_replay(lines, turns_of, diag, labels):
    """replay_in_turn's contract for any line order, from the whole-file index.

    A reference for the tests: ``whole_file_answers`` parses and counts every line,
    and each answered name's answers are yielded at each of its turns.
    """
    answers = whole_file_answers("".join(lines), diag)
    labels.update(label for by_label in answers.values() for label in by_label)
    yield from sorted(
        (turn, name, by_label) for name, by_label in answers.items() for turn in turns_of(name)
    )


def out_of_turn_once(mp):
    """Make the first replay_in_turn call raise FixtureOrderError, so resolve sorts the fixture."""
    replay = dns_resolution.replay_in_turn
    calls = []

    def first_out_of_turn(lines, turns_of, diag, labels):
        calls.append(1)
        if len(calls) == 1:
            raise dns_resolution.FixtureOrderError(0, "every name")
        yield from replay(lines, turns_of, diag, labels)

    mp.setattr(dns_resolution, "replay_in_turn", first_out_of_turn)


def small_runs(mp, run_lines, fan_in):
    mp.setattr(_merge_sort, "RUN_LINES", run_lines)
    mp.setattr(_merge_sort, "MERGE_FAN_IN", fan_in)


E2E_FIXTURE_LINES = (E2E_DIR / "dns.jsonl").read_text().splitlines()

# The first 8 e2e domains, and www.site002.test, listed as well as resolved as
# the www variant of site002.test.
DIFF_DOMAINS = "".join(f"{rank},site{rank:03d}.test\n" for rank in range(1, 9))
DIFF_DOMAINS += "9,www.site002.test\n"
DIFF_TURN = {}
for _rank in range(1, 9):
    DIFF_TURN.setdefault(f"site{_rank:03d}.test", len(DIFF_TURN))
    DIFF_TURN.setdefault(f"www.site{_rank:03d}.test", len(DIFF_TURN))


def fixture_domain(line):
    try:
        return json.loads(line)["domain"]
    except (ValueError, KeyError, TypeError):
        return None


def diff_pool():
    listed = [line for line in E2E_FIXTURE_LINES if fixture_domain(line) in DIFF_TURN]
    unlisted = [line for line in E2E_FIXTURE_LINES if fixture_domain(line) == "site050.test"]
    first = json.loads(listed[0])
    return listed + unlisted + [
        json.dumps(dict(first, a=["198.51.100.1"])),  # repeats (site001.test, fixture)
        json.dumps({"domain": "unlisted.test", "resolver": "extra", "a": ["198.51.100.2"]}),
        listed[1] + "\r",
        "", "   ", "{bad", '{"domain": 5}', "[1]",
    ]


DIFF_POOL = diff_pool()


def in_turn(lines):
    """The lines grouped by name in the domain list's order; other lines follow the line before."""
    keyed, key = [], -1
    for i, line in enumerate(lines):
        key = DIFF_TURN.get(fixture_domain(line), key)
        keyed.append((key, i, line))
    return [line for *_, line in sorted(keyed)]


class TestFixtureReplayOrder:
    def test_e2e_and_in_order_fixtures_stream(self, e2e_output, tmp_path):
        in_order = tmp_path / "in_order.jsonl"
        in_order.write_text("\n\n".join(in_turn(DIFF_POOL)) + "\n")
        domains = tmp_path / "domains.csv"
        domains.write_text(DIFF_DOMAINS)
        code, artifacts, warned = resolve_outcome(domains, in_order, tmp_path / "in_order")
        assert (code, warned) == (0, [])

        code, artifacts, warned = resolve_outcome(
            E2E_DIR / "domains.csv", E2E_DIR / "dns.jsonl", tmp_path / "e2e"
        )
        assert (code, warned) == (0, [])
        for name in RESOLVE_ARTIFACTS:
            assert artifacts[name] == read(e2e_output / name), name

    def test_shuffled_fixture_falls_back_once_to_the_same_bytes(self, e2e_output, tmp_path):
        lines = E2E_FIXTURE_LINES[:]
        lines[0], lines[-1] = lines[-1], lines[0]
        shuffled = tmp_path / "dns.jsonl"
        shuffled.write_text("\n".join(lines) + "\n")
        code, artifacts, warned = resolve_outcome(
            E2E_DIR / "domains.csv", shuffled, tmp_path / "out"
        )
        assert code == 0
        assert len(warned) == 1 and f"{shuffled}: line 2 " in warned[0], warned
        for name in RESOLVE_ARTIFACTS:
            assert artifacts[name] == read(e2e_output / name), name
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(RESOLVE_ARTIFACTS)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(DIFF_POOL), max_size=40), st.booleans(), st.booleans(),
        st.integers(1, 6), st.integers(2, 3),
    )
    def test_streamed_replay_equals_the_index(
        self, tmp_path_factory, lines, grouped, final, run_lines, fan_in
    ):
        """Streamed replay, the sorted replay and the whole-file reference write the same bytes.

        Small runs make most fixtures span more runs than one merge takes.
        """
        tmp = tmp_path_factory.mktemp("replay")
        domains = tmp / "domains.csv"
        domains.write_text(DIFF_DOMAINS)
        fixture = tmp / "dns.jsonl"
        if grouped:
            lines = in_turn(lines)
        fixture.write_text("\n".join(lines) + ("\n" if final else ""))
        with pytest.MonkeyPatch.context() as mp:
            small_runs(mp, run_lines, fan_in)
            streamed = resolve_outcome(domains, fixture, tmp / "streamed")
            out_of_turn_once(mp)
            sorted_ = resolve_outcome(domains, fixture, tmp / "sorted")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dns_resolution, "replay_in_turn", whole_file_replay)
            indexed = resolve_outcome(domains, fixture, tmp / "indexed")
        # the codes and every artifact, resolve_diagnostics.json included
        assert streamed[:2] == sorted_[:2] == indexed[:2]
        assert len(sorted_[2]) == 1 and indexed[2] == []
        if grouped:
            assert streamed[2] == []
        if streamed[0] == 0:  # each malformed line is counted once
            malformed = sum(
                bool(line.strip()) and dns_resolution.fixture_result(line, Diagnostics()) is None
                for line in lines
            )
            diag = json.loads(streamed[1]["resolve_diagnostics.json"])
            assert diag.get("malformed_fixture_lines", 0) == malformed
        for name in ("streamed", "sorted", "indexed"):
            assert sorted(p.name for p in (tmp / name).glob("*")) == sorted(
                n for n, data in streamed[1].items() if data is not None
            )

    def test_repeat_across_runs_keeps_the_last_answer(self, tmp_path):
        """A shuffled fixture over more runs than one merge takes; a repeated
        (name, resolver) keeps its last line's answer."""
        domains = tmp_path / "domains.csv"
        domains.write_text(DIFF_DOMAINS)
        lines = [line for line in DIFF_POOL if fixture_domain(line) in DIFF_TURN]
        random.Random(1).shuffle(lines)
        first = json.loads(lines[0])
        repeats = [
            json.dumps(dict(first, a=[f"93.184.216.{n}"], aaaa=[], status="ok")) for n in (7, 8, 9)
        ]
        lines = repeats[:1] + lines[:15] + repeats[1:2] + lines[15:] + repeats[2:]
        fixture = tmp_path / "dns.jsonl"
        fixture.write_text("\n".join(lines) + "\n")
        with pytest.MonkeyPatch.context() as mp:
            small_runs(mp, 4, 2)
            code, artifacts, warned = resolve_outcome(domains, fixture, tmp_path / "out")
        assert code == 0 and len(warned) == 1
        assert len(lines) > 4 * 2  # more runs than one merge takes
        rows = [json.loads(row) for row in artifacts["resolved.jsonl"].splitlines()]
        (repeated,) = [
            row for row in rows
            if (row["domain"], row["resolver"]) == (first["domain"], first["resolver"])
            and row["variant"] == ("www" if first["domain"].startswith("www.") else "base")
        ]
        assert repeated["addresses"] == ["93.184.216.9"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(RESOLVE_ARTIFACTS)

    @pytest.mark.parametrize(
        "data, code, message",
        [
            (b"{bad\n\n[1]\n", 3, "has no usable entries"),
            (b"", 3, "has no usable entries"),
            ("\n".join(E2E_FIXTURE_LINES).replace('"fixture"', '"other"').encode(), 1,
             "primary resolver 'fixture' not among ['other', 'verifier']"),
        ],
        ids=["malformed-only", "empty", "unknown-primary"],
    )
    def test_fixture_failure_leaves_the_old_artifact(
        self, tmp_path, capsys, data, code, message
    ):
        self.fails_leaving_the_old_artifact(tmp_path, capsys, data, code, message)

    @pytest.mark.parametrize(
        "data, code, message",
        [
            (b"{bad\n\n[1]\n", 3, "has no usable entries"),
            (b"", 3, "has no usable entries"),
            ("\n".join(E2E_FIXTURE_LINES[::-1]).replace('"fixture"', '"other"').encode(), 1,
             "primary resolver 'fixture' not among ['other', 'verifier']"),
        ],
        ids=["malformed-only", "empty", "unknown-primary"],
    )
    def test_sorted_fixture_failure_leaves_the_old_artifact(
        self, tmp_path, capsys, data, code, message
    ):
        with pytest.MonkeyPatch.context() as mp:
            small_runs(mp, 16, 4)  # 400 lines: 25 runs, merged in two passes
            out_of_turn_once(mp)
            self.fails_leaving_the_old_artifact(tmp_path, capsys, data, code, message)

    @staticmethod
    def fails_leaving_the_old_artifact(tmp_path, capsys, data, code, message):
        fixture = tmp_path / "dns.jsonl"
        fixture.write_bytes(data)
        out = tmp_path / "out"
        out.mkdir()
        (out / "resolved.jsonl").write_text("old\n")
        assert resolve_outcome(E2E_DIR / "domains.csv", fixture, out)[0] == code
        assert message in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["resolved.jsonl"]
        assert (out / "resolved.jsonl").read_text() == "old\n"

    @pytest.mark.parametrize(
        "at, bad",
        [(0, b"\xff"), (20, b"\xff"), (40000, b"\xff"), (300, b"\xe2\x82\n"),
         (500, b"\xed\xa0\x80"), (None, b"\xe2\x82")],
    )
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_non_utf8_fixture_names_its_byte_in_the_file(
        self, tmp_path, capsys, at, bad, shuffled
    ):
        lines = E2E_FIXTURE_LINES[::-1] if shuffled else E2E_FIXTURE_LINES
        text = ("\n".join(lines) + "\n").encode()
        at = len(text) if at is None else at
        data = text[:at] + bad + text[at:]
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        fixture = tmp_path / "dns.jsonl"
        fixture.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            small_runs(mp, 16, 4)
            assert resolve_outcome(E2E_DIR / "domains.csv", fixture, tmp_path / "out")[0] == 3
        message = f"error: {fixture}: DNS fixture is not UTF-8 text ({whole.value})\n"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "resolved.jsonl").exists()
        assert list((tmp_path / "out").glob("*")) == []  # no run file or directory is left

    def test_mistyped_fixture_fields_are_counted_not_raised(self, tmp_path):
        fixture = tmp_path / "dns.jsonl"
        fine = json.loads(E2E_FIXTURE_LINES[0])
        mistyped = [{"domain": 5}, {"cnames": [5]}, {"cnames": "abc"}, {"resolver": None},
                    {"resolver": 7}, {"a": {"1.2.3.4": 1}}]
        fixture.write_text("".join(json.dumps(dict(fine, **m)) + "\n" for m in mistyped)
                           + "\n".join(E2E_FIXTURE_LINES) + "\n")
        out = tmp_path / "out"
        result = run_cli(
            "resolve", "--domain-list", E2E_DIR / "domains.csv", "--fixture-dns", fixture,
            "--output-dir", out,
        )
        assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
        diag = json.loads((out / "resolve_diagnostics.json").read_text())
        assert diag["malformed_fixture_lines"] == len(mistyped)
        assert json.loads((out / "resolve_meta.json").read_text())["resolvers"] == [
            "fixture", "verifier"
        ]


def e2e_copies(names):
    """A domain list of e2e-like domains and the e2e answers for its first ``names`` names.

    Copy n of the 100 e2e domains is ranked 100·n higher and named ``c<n>-siteNNN.test``.
    """
    domains, lines = [], []
    for n in itertools.count():
        if len(lines) >= 2 * names:  # two resolvers per name
            break
        for line in E2E_FIXTURE_LINES:
            obj = json.loads(line)
            base = obj["domain"].removeprefix("www.")
            obj["domain"] = obj["domain"].replace(base, f"c{n}-{base}")
            lines.append(json.dumps(obj))
        domains += [f"c{n}-site{rank:03d}.test" for rank in range(1, 101)]
    return domains, lines[: 2 * names]


class TestStreamedFixtureMemory:
    def test_resolve_peak_does_not_grow_with_fixture_answers(self, tmp_path):
        """One list of 8,000 names; the fixture answers 2,000 or all 8,000 of them, in order."""
        peaks = resolve_peaks(tmp_path, None)
        assert peaks[8000] < 1.25 * peaks[2000], peaks

    def test_shuffled_resolve_peak_does_not_grow_with_fixture_answers(self, tmp_path):
        """The same list and answers, shuffled: resolve sorts them in bounded runs."""
        peaks = resolve_peaks(tmp_path, random.Random(1))
        assert peaks[8000] < 1.25 * peaks[2000], peaks


def resolve_peaks(tmp_path, shuffle):
    """resolve's traced peak with 2,000 and 8,000 of one list's 8,000 names answered."""
    domains, lines = e2e_copies(8000)
    list_path = tmp_path / "domains.csv"
    list_path.write_text("".join(f"{r},{d}\n" for r, d in enumerate(domains[:4000], 1)))
    peaks = {}
    for count in (2000, 8000):
        answers = lines[: 2 * count]
        if shuffle:
            shuffle.shuffle(answers)
        fixture = tmp_path / f"dns{count}.jsonl"
        fixture.write_text("\n".join(answers) + "\n")
        out = tmp_path / str(count)
        cfg = PipelineConfig(
            domain_list=str(list_path), dns_fixture=str(fixture),
            primary_resolver="fixture", output_dir=str(out),
        ).validated()
        with WarningLog() as messages:
            peaks[count] = traced_peak(resolve.run, cfg)
        assert len(fallbacks(messages)) == (1 if shuffle else 0)
        rows = read(out / "resolved.jsonl").count(b"\n")
        assert rows > 2 * count * 0.9
        assert sorted(p.name for p in out.iterdir()) == sorted(RESOLVE_ARTIFACTS)
    return peaks


class CountingResolver:
    """A live resolver that counts its calls; the first query blocks until released."""

    def __init__(self, first):
        self.resolver_id = "counting"
        self.first = first
        self.calls = 0
        self.lock = threading.Lock()
        self.release = threading.Event()

    def resolve(self, domain, timeout=5.0):
        with self.lock:
            self.calls += 1
        if domain == self.first:
            self.release.wait(30)
        return dns_resolution.ResolutionResult(
            domain, self.resolver_id, (), frozenset({(4, 0x5DB8D822)}),
            dns_resolution.ResolutionStatus.OK, 1,
        )


class TestBoundedLiveResolution:
    def test_at_most_two_tasks_per_worker_are_outstanding(self, tmp_path, monkeypatch):
        domains = tmp_path / "domains.csv"
        domains.write_text("".join(f"{r},n{r}.test\n" for r in range(1, 101)))
        resolver = CountingResolver("n1.test")
        monkeypatch.setattr(dns_resolution, "parse_endpoint", lambda entry: resolver)
        seen = []

        def release():
            seen.append(resolver.calls)
            resolver.release.set()

        # While the first name's query blocks, the other worker runs the names
        # already submitted, and no more.
        timer = threading.Timer(0.5, release)
        timer.start()
        try:
            cfg = PipelineConfig(
                domain_list=str(domains), resolvers=["counting=127.0.0.1"], max_inflight=2,
                output_dir=str(tmp_path / "out"),
            )
            assert run_stage("resolve", cfg) == 0
        finally:
            timer.cancel()
            resolver.release.set()
        assert seen and seen[0] <= 2 * 2, seen
        assert resolver.calls == 200
        rows = read(tmp_path / "out" / "resolved.jsonl").splitlines()
        assert [(r["rank"], r["variant"]) for r in map(json.loads, rows)] == [
            (rank, variant) for rank in range(1, 101) for variant in ("base", "www")
        ]

    def test_in_order_bounds_the_calls_not_yet_consumed(self):
        import concurrent.futures

        pulled = 0

        def items():
            nonlocal pulled
            for i in range(50):
                pulled += 1
                yield i

        with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
            out = []
            for value in resolve._in_order(pool, lambda i: i * i, items(), 6):
                assert pulled <= len(out) + 1 + 6
                out.append(value)
        assert out == [i * i for i in range(50)]


class FixtureResolver:
    """A live resolver that answers with its label's lines of a DNS fixture."""

    def __init__(self, resolver_id, lines):
        self.resolver_id = resolver_id
        results = (dns_resolution.fixture_result(line, Diagnostics()) for line in lines)
        self.answers = {r.domain: r for r in results if r.resolver_id == resolver_id}

    def resolve(self, domain, timeout=5.0):
        return self.answers[domain]


class TestLiveAnswerPath:
    def test_live_answers_give_the_fixture_artifacts(self, tmp_path, monkeypatch):
        domains = tmp_path / "domains.csv"
        domains.write_text("1,loop.test\n2,split.test\n3,private.test\n4,plain.test\n")
        special = {  # (name, resolver) -> the fields that differ from a plain answer
            ("loop.test", "r1"): {"cnames": ["edge.loop.test", "loop.test"]},
            ("split.test", "r2"): {"a": ["93.184.216.35"]},
            ("www.private.test", "r1"): {"a": ["10.0.0.1", "93.184.216.34"]},
        }
        lines = [
            json.dumps({"domain": name, "resolver": label, "cnames": [], "a": ["93.184.216.34"],
                        "aaaa": [], "status": "ok", "ts": 1_400_000_000,
                        **special.get((name, label), {})}) + "\n"
            for base in ("loop.test", "split.test", "private.test", "plain.test")
            for name in (base, "www." + base)
            for label in ("r1", "r2")
        ]
        fixture = tmp_path / "dns.jsonl"
        fixture.write_text("".join(lines))
        resolvers = {label: FixtureResolver(label, lines) for label in ("r1", "r2")}
        monkeypatch.setattr(
            dns_resolution, "parse_endpoint", lambda entry: resolvers[entry.partition("=")[0]]
        )
        outputs = {}
        for mode, inputs in {
            "live": dict(resolvers=["r1=127.0.0.1", "r2=127.0.0.1"], max_inflight=2),
            "fixture": dict(dns_fixture=str(fixture)),
        }.items():
            out = tmp_path / mode
            cfg = PipelineConfig(
                domain_list=str(domains), primary_resolver="r2", output_dir=str(out), **inputs
            )
            assert run_stage("resolve", cfg) == 0
            names = ("resolved.jsonl", "resolve_diagnostics.json", "resolve_meta.json")
            outputs[mode] = [read(out / name) for name in names]
        assert outputs["live"] == outputs["fixture"]
        diag = json.loads(outputs["live"][1])
        assert (diag["chain_loops"], diag["special_purpose_rejected"]) == (1, 1)
        assert (diag["cross_check_agree"], diag["cross_check_disagree"]) == (6, 1)
        rows = [json.loads(line) for line in outputs["live"][0].splitlines()]
        assert ("loop.test", "r1") not in {(r["domain"], r["resolver"]) for r in rows}
