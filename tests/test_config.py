"""Declarative federation configuration (repro.config)."""

import json

import pytest

from repro.config import build_from_config, load_config
from repro.errors import CatalogError, PlanError


def base_config(tmp_path=None):
    return {
        "sources": {
            "erp": {
                "type": "sqlite",
                "tables": {
                    "ORDERS": {
                        "columns": [["oid", "INT"], ["cust_id", "INT"],
                                    ["total", "FLOAT"]],
                        "rows": [[1, 10, 9.5], [2, 10, 100.0], [3, 11, 55.0]],
                    }
                },
                "link": {"latency_ms": 30, "bandwidth_bytes_per_s": 2e6},
            },
            "crm": {
                "type": "memory",
                "tables": {
                    "customers": {
                        "columns": [["id", "INT"], ["name", "TEXT"]],
                        "rows": [[10, "Ada"], [11, "Grace"]],
                    }
                },
            },
        },
        "tables": [
            {"name": "orders", "source": "erp", "remote_table": "ORDERS"},
            {"name": "customers", "source": "crm"},
        ],
        "views": {"big_orders": "SELECT * FROM orders WHERE total > 50"},
        "analyze": True,
    }


class TestBuild:
    def test_end_to_end(self):
        gis = build_from_config(base_config())
        result = gis.query(
            "SELECT c.name, COUNT(*) FROM customers c "
            "JOIN big_orders o ON c.id = o.cust_id GROUP BY c.name ORDER BY 1"
        )
        assert result.rows == [("Ada", 1), ("Grace", 1)]

    def test_link_configured(self):
        gis = build_from_config(base_config())
        assert gis.network.link_for("erp").latency_ms == 30.0

    def test_analyze_ran(self):
        gis = build_from_config(base_config())
        assert gis.catalog.statistics("orders") is not None

    def test_analyze_skippable(self):
        config = base_config()
        config["analyze"] = False
        gis = build_from_config(config)
        assert gis.catalog.statistics("orders") is None

    def test_planner_options_passed(self):
        config = base_config()
        config["options"] = {"join_strategy": "canonical", "semijoin": "off"}
        gis = build_from_config(config)
        assert gis.planner.options.join_strategy == "canonical"

    def test_invalid_options_rejected(self):
        config = base_config()
        config["options"] = {"join_strategy": "quantum"}
        with pytest.raises(PlanError):
            build_from_config(config)

    def test_fragment_retries(self):
        config = base_config()
        config["fragment_retries"] = 2
        gis = build_from_config(config)
        assert gis.fragment_retries == 2
        assert gis.query("SELECT COUNT(*) FROM orders").scalar() == 3

    def test_unknown_top_level_key_rejected(self):
        # The key of the removed result cache: an old config must fail
        # loudly rather than silently run without it.
        config = base_config()
        config["result_cache_size"] = 4
        with pytest.raises(CatalogError, match="result_cache_size"):
            build_from_config(config)

    def test_serve_section_is_a_known_top_level_key(self, tmp_path):
        # `--config cfg.json --serve` builds the federation from the whole
        # file, then parses its serve section into the server's config.
        from repro.config import build_server_config, load_config

        config = base_config()
        config["serve"] = {"port": 7432, "tenants": {"a": {"token": "t"}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        gis = load_config(str(path))
        assert gis.query("SELECT COUNT(*) FROM orders").scalar() == 3
        server_config = build_server_config(config["serve"])
        assert server_config.port == 7432
        assert server_config.tenants["a"].token == "t"

    def test_replicas(self):
        config = base_config()
        config["sources"]["backup"] = {
            "type": "sqlite",
            "tables": {
                "ORDERS": {
                    "columns": [["oid", "INT"], ["cust_id", "INT"],
                                ["total", "FLOAT"]],
                    "rows": [[1, 10, 9.5], [2, 10, 100.0], [3, 11, 55.0]],
                }
            },
            "link": {"latency_ms": 1, "bandwidth_bytes_per_s": 1e9},
        }
        config["replicas"] = [
            {"name": "orders", "source": "backup", "remote_table": "ORDERS"}
        ]
        gis = build_from_config(config)
        planned = gis.plan("SELECT oid FROM orders")
        from repro.core.logical import RemoteQueryOp

        sources = {
            n.source_name for n in planned.distributed.walk()
            if isinstance(n, RemoteQueryOp)
        }
        assert sources == {"backup"}


class TestSourceTypes:
    def test_csv_source_with_materialized_rows(self, tmp_path):
        config = {
            "sources": {
                "archive": {
                    "type": "csv",
                    "directory": str(tmp_path),
                    "tables": {
                        "parts": {
                            "columns": [["p_id", "INT"], ["p_name", "TEXT"]],
                            "rows": [[1, "bolt"], [2, "nut"]],
                        }
                    },
                }
            },
            "tables": [{"name": "parts", "source": "archive"}],
        }
        gis = build_from_config(config)
        assert gis.query("SELECT COUNT(*) FROM parts").scalar() == 2

    def test_keyvalue_requires_key(self):
        config = {
            "sources": {
                "kv": {
                    "type": "keyvalue",
                    "tables": {"t": {"columns": [["k", "INT"]], "rows": []}},
                }
            }
        }
        with pytest.raises(CatalogError, match="key"):
            build_from_config(config)

    def test_keyvalue_and_rest(self):
        config = {
            "sources": {
                "kv": {
                    "type": "keyvalue",
                    "tables": {
                        "profiles": {
                            "columns": [["uid", "INT"], ["tier", "TEXT"]],
                            "rows": [[1, "GOLD"], [2, "BASIC"]],
                            "key": "uid",
                        }
                    },
                },
                "feed": {
                    "type": "rest",
                    "page_rows": 10,
                    "tables": {
                        "events": {
                            "columns": [["eid", "INT"], ["uid", "INT"]],
                            "rows": [[100, 1], [101, 2], [102, 1]],
                        }
                    },
                },
            },
            "tables": [
                {"name": "profiles", "source": "kv"},
                {"name": "events", "source": "feed"},
            ],
        }
        gis = build_from_config(config)
        result = gis.query(
            "SELECT p.tier, COUNT(*) FROM profiles p "
            "JOIN events e ON p.uid = e.uid GROUP BY p.tier ORDER BY 1"
        )
        assert result.rows == [("BASIC", 1), ("GOLD", 2)]

    def test_unknown_source_type(self):
        with pytest.raises(CatalogError, match="unknown type"):
            build_from_config({"sources": {"x": {"type": "oracle"}}})

    def test_sources_required(self):
        with pytest.raises(CatalogError, match="sources"):
            build_from_config({})

    def test_csv_requires_directory(self):
        with pytest.raises(CatalogError, match="directory"):
            build_from_config({"sources": {"c": {"type": "csv"}}})

    def test_column_list_shorthand(self):
        config = {
            "sources": {
                "m": {"type": "memory", "tables": {"t": [["a", "INT"]]}}
            },
            "tables": [{"name": "t", "source": "m"}],
        }
        gis = build_from_config(config)
        assert gis.query("SELECT COUNT(*) FROM t").scalar() == 0


class TestSchedulerConfig:
    def test_full_knob_set(self):
        config = base_config()
        config["scheduler"] = {
            "max_parallel_fragments": 8,
            "max_parallel_per_source": 3,
            "fragment_timeout_ms": 2000,
            "retry": {"retries": 3, "backoff_ms": 50, "multiplier": 3,
                      "max_ms": 4000, "jitter": 0.2},
            "circuit_breaker": {"failure_threshold": 5, "reset_ms": 10000},
        }
        gis = build_from_config(config)
        opts = gis.planner.options
        assert opts.max_parallel_fragments == 8
        assert opts.max_parallel_per_source == 3
        assert opts.fragment_timeout_ms == 2000.0
        assert opts.retry_backoff_ms == 50.0
        assert opts.retry_backoff_multiplier == 3.0
        assert opts.retry_backoff_max_ms == 4000.0
        assert opts.retry_jitter == 0.2
        assert opts.breaker_failure_threshold == 5
        assert opts.breaker_reset_ms == 10000.0
        assert gis.fragment_retries == 3

    def test_scheduler_queries_still_correct(self):
        config = base_config()
        config["scheduler"] = {"max_parallel_fragments": 4}
        gis = build_from_config(config)
        result = gis.query(
            "SELECT c.name, COUNT(*) FROM customers c "
            "JOIN big_orders o ON c.id = o.cust_id GROUP BY c.name ORDER BY 1"
        )
        assert result.rows == [("Ada", 1), ("Grace", 1)]
        assert result.metrics.network.scheduler_mode == "parallel(4)"

    def test_merges_with_explicit_options(self):
        config = base_config()
        config["options"] = {"join_strategy": "canonical"}
        config["scheduler"] = {"max_parallel_fragments": 2}
        gis = build_from_config(config)
        assert gis.planner.options.join_strategy == "canonical"
        assert gis.planner.options.max_parallel_fragments == 2

    def test_retries_key_overrides_legacy_fragment_retries(self):
        config = base_config()
        config["fragment_retries"] = 1
        config["scheduler"] = {"retry": {"retries": 4}}
        gis = build_from_config(config)
        assert gis.fragment_retries == 4

    def test_unknown_key_rejected(self):
        config = base_config()
        config["scheduler"] = {"max_parallel": 4}
        with pytest.raises(CatalogError, match="max_parallel"):
            build_from_config(config)

    def test_unknown_retry_key_rejected(self):
        config = base_config()
        config["scheduler"] = {"retry": {"backof_ms": 10}}
        with pytest.raises(CatalogError, match="backof_ms"):
            build_from_config(config)

    def test_wrong_type_rejected(self):
        config = base_config()
        config["scheduler"] = {"max_parallel_fragments": "lots"}
        with pytest.raises(CatalogError, match="must be an integer"):
            build_from_config(config)

    def test_bool_is_not_an_integer(self):
        config = base_config()
        config["scheduler"] = {"max_parallel_fragments": True}
        with pytest.raises(CatalogError, match="must be an integer"):
            build_from_config(config)

    def test_non_mapping_section_rejected(self):
        config = base_config()
        config["scheduler"] = [4]
        with pytest.raises(CatalogError, match="mapping"):
            build_from_config(config)

    def test_out_of_range_value_rejected(self):
        config = base_config()
        config["scheduler"] = {"max_parallel_fragments": 0}
        with pytest.raises(CatalogError, match="invalid scheduler config"):
            build_from_config(config)

    def test_negative_retries_rejected(self):
        config = base_config()
        config["scheduler"] = {"retry": {"retries": -1}}
        with pytest.raises(CatalogError, match="retries"):
            build_from_config(config)

    def test_jitter_range_enforced(self):
        config = base_config()
        config["scheduler"] = {"retry": {"jitter": 1.5}}
        with pytest.raises(CatalogError, match="jitter"):
            build_from_config(config)


class TestJsonFile:
    def test_load_config_from_json(self, tmp_path):
        path = tmp_path / "federation.json"
        path.write_text(json.dumps(base_config()))
        gis = load_config(str(path))
        assert gis.query("SELECT COUNT(*) FROM orders").scalar() == 3


class TestResilienceConfig:
    def test_deadline_and_mode_applied(self):
        config = base_config()
        config["resilience"] = {
            "deadline_ms": 60000.0, "on_source_failure": "partial"
        }
        gis = build_from_config(config)
        assert gis.planner.options.deadline_ms == 60000.0
        assert gis.planner.options.on_source_failure == "partial"

    def test_unknown_resilience_key_rejected(self):
        config = base_config()
        config["resilience"] = {"deadlines_ms": 10}
        with pytest.raises(CatalogError, match="resilience"):
            build_from_config(config)

    def test_invalid_mode_rejected(self):
        config = base_config()
        config["resilience"] = {"on_source_failure": "shrug"}
        with pytest.raises(CatalogError, match="on_source_failure"):
            build_from_config(config)

    def test_non_numeric_deadline_rejected(self):
        config = base_config()
        config["resilience"] = {"deadline_ms": "fast"}
        with pytest.raises(CatalogError, match="deadline_ms"):
            build_from_config(config)


class TestFaultsConfig:
    def test_faults_section_arms_injector(self):
        config = base_config()
        config["faults"] = {
            "seed": 7,
            "sources": {"erp": {"fail_connect": 99}},
        }
        gis = build_from_config(config)
        assert gis.fault_injector is not None
        assert gis.fault_injector.plan.seed == 7
        from repro.errors import SourceError

        with pytest.raises(SourceError, match="injected fault"):
            gis.query("SELECT COUNT(*) FROM orders")
        # The unfaulted source still answers.
        assert gis.query("SELECT COUNT(*) FROM customers").scalar() == 2

    def test_latency_fault_from_config(self):
        plain = build_from_config(base_config())
        baseline = plain.query("SELECT oid FROM orders")
        config = base_config()
        config["faults"] = {"sources": {"erp": {"latency_ms": 500.0}}}
        gis = build_from_config(config)
        slow = gis.query("SELECT oid FROM orders")
        assert slow.rows == baseline.rows
        assert slow.metrics.simulated_ms > baseline.metrics.simulated_ms

    def test_unknown_fault_key_rejected(self):
        config = base_config()
        config["faults"] = {"sources": {"erp": {"fail_conect": 1}}}
        with pytest.raises(CatalogError, match="fail_conect"):
            build_from_config(config)

    def test_unknown_faults_section_key_rejected(self):
        config = base_config()
        config["faults"] = {"seeds": 3}
        with pytest.raises(CatalogError, match="faults"):
            build_from_config(config)

    def test_invalid_spec_value_rejected(self):
        config = base_config()
        config["faults"] = {"sources": {"erp": {"fail_connect": -1}}}
        with pytest.raises(CatalogError, match="fail_connect"):
            build_from_config(config)


class TestServeConfig:
    def test_plan_cache_size_from_config(self):
        config = base_config()
        config["plan_cache_size"] = 32
        gis = build_from_config(config)
        assert gis.plan_cache.capacity == 32
        gis.query("SELECT COUNT(*) FROM orders")
        assert gis.query("SELECT COUNT(*) FROM orders").metrics.network.plan_cache_hit

    def test_build_server_config(self):
        from repro.config import build_server_config

        server_config = build_server_config(
            {
                "host": "0.0.0.0",
                "port": 7432,
                "max_workers": 8,
                "default_max_concurrent": 3,
                "require_known_tenant": True,
                "tenants": {
                    "analytics": {"token": "s3cret", "max_concurrent": 4},
                    "batch": {"max_queued": 64},
                },
            }
        )
        assert server_config.host == "0.0.0.0" and server_config.port == 7432
        assert server_config.max_workers == 8
        assert server_config.require_known_tenant
        assert server_config.tenants["analytics"].token == "s3cret"
        assert server_config.tenants["analytics"].quota().max_concurrent == 4
        assert server_config.tenants["batch"].quota().max_queued == 64
        assert server_config.default_quota().max_concurrent == 3

    def test_unknown_serve_key_rejected(self):
        from repro.config import build_server_config

        with pytest.raises(CatalogError, match="max_workerz"):
            build_server_config({"max_workerz": 2})

    def test_unknown_tenant_key_rejected(self):
        from repro.config import build_server_config

        with pytest.raises(CatalogError, match="tokn"):
            build_server_config({"tenants": {"a": {"tokn": "x"}}})

    def test_invalid_quota_rejected(self):
        from repro.config import build_server_config

        with pytest.raises(CatalogError):
            build_server_config({"tenants": {"a": {"max_concurrent": 0}}})
