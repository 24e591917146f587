"""Tests for the layered public API: config, sessions, prepared queries,
and rule-sharing batched execution (batch-vs-sequential parity)."""

import dataclasses

import pytest

from repro import BatchResult, Daisy, DaisyConfig, PreparedQuery, Session
from repro.baselines import OfflineCleaner
from repro.daisy import ENGINE_SCOPED_FIELDS
from repro.datasets import airquality, hospital, ssb, workloads
from repro.errors import QueryError, SessionError
from repro.query.ast import ColumnRef, Condition, Query
from repro.relation import ColumnType, Relation


def cities_rel():
    return Relation.from_rows(
        [("zip", ColumnType.INT), ("city", ColumnType.STRING)],
        [
            (9001, "Los Angeles"),
            (9001, "San Francisco"),
            (9001, "Los Angeles"),
            (10001, "San Francisco"),
            (10001, "New York"),
        ],
        name="cities",
    )


def make_engine(**config_kwargs):
    d = Daisy(config=DaisyConfig(use_cost_model=False, **config_kwargs))
    d.register_table("cities", cities_rel())
    d.add_rule("cities", "zip -> city", name="phi")
    return d


def relations_identical(a: Relation, b: Relation) -> bool:
    """Byte-identical: same schema, same rows (tids, cells, PValue
    candidates with exact probabilities and world ids)."""
    if a.schema.names != b.schema.names or len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a.rows, b.rows))


class TestDaisyConfig:
    def test_defaults_and_replace(self):
        config = DaisyConfig()
        assert config.use_cost_model and len(dataclasses.fields(config)) == 8
        off = config.replace(use_cost_model=False)
        assert not off.use_cost_model and config.use_cost_model

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DaisyConfig().use_cost_model = False

    def test_validation(self):
        with pytest.raises(ValueError):
            DaisyConfig(backend="sparkstore")
        with pytest.raises(ValueError):
            DaisyConfig(expected_queries=0)
        with pytest.raises(ValueError):
            DaisyConfig(dc_error_threshold=1.5)
        for make in (DaisyConfig, Daisy):  # the deleted SQLite mirror mode
            with pytest.raises(ValueError, match=r"\('memory', 'mmap', 'auto'\)"):
                make(storage="sqlite")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("parallelism", 2),
            ("pool", "thread"),
            ("num_shards", 2),
            ("auto_max_workers", 2),
            ("batch_strategy", "shared"),
            ("matrix_maintenance", "rebuild"),
        ],
    )
    def test_removed_knobs_fail_loudly(self, name, value):
        assert len(dataclasses.fields(DaisyConfig)) == 8
        with pytest.raises(TypeError, match=name):
            DaisyConfig(**{name: value})
        with pytest.raises(TypeError, match=name):
            Daisy(**{name: value})


class TestSession:
    def test_connect_and_context_manager(self):
        d = make_engine()
        with d.connect() as session:
            assert isinstance(session, Session)
            result = session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            assert len(result) == 3
        assert session.closed
        with pytest.raises(SessionError):
            session.execute("SELECT zip FROM cities WHERE city = 'New York'")

    def test_per_session_query_logs(self):
        d = make_engine()
        s1, s2 = d.connect(), d.connect()
        s1.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        assert len(s1.query_log) == 1
        assert s2.query_log == []

    def test_session_config_override(self):
        d = Daisy()  # cost model on by default
        d.register_table("cities", cities_rel())
        d.add_rule("cities", "zip -> city", name="phi")
        session = d.connect(d.config.replace(use_cost_model=False))
        assert not session.config.use_cost_model
        assert d.config.use_cost_model

    @pytest.mark.parametrize("field", ENGINE_SCOPED_FIELDS)
    def test_engine_scoped_override_rejected(self, field):
        other = {
            "backend": "rowstore", "column_backend": "python", "storage": "mmap",
            "memory_budget_mb": 7, "diagnostics": "witness",
        }[field]
        d = make_engine()  # every field at its default
        with pytest.raises(ValueError, match=field):
            d.connect(d.config.replace(**{field: other}))

    def test_constructor_takes_config_or_overrides(self):
        assert Daisy(column_backend="python").config.column_backend == "python"
        with pytest.raises(TypeError):
            Daisy(no_such_knob=1)
        with pytest.raises(TypeError):
            Daisy(DaisyConfig(), use_cost_model=False)

    def test_ast_query_logs_real_sql(self):
        d = make_engine()
        session = d.connect()
        query = Query(
            tables=["cities"],
            projection=[ColumnRef("zip")],
            conditions=[Condition(ColumnRef("city"), "=", "Los Angeles")],
        )
        session.execute(query)
        assert session.query_log[-1].sql == (
            "SELECT zip FROM cities WHERE city = 'Los Angeles'"
        )
        assert "<ast>" not in session.query_log[-1].sql

    def test_introspection_delegates_to_shared_state(self):
        d = make_engine()
        session = d.connect()
        session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        assert session.probabilistic_cells("cities") > 0
        assert session.table("cities") is d.table("cities")
        assert session.total_work() == d.total_work() > 0


class TestPreparedQuery:
    def test_reexecution_parity_without_params(self):
        sql = "SELECT zip FROM cities WHERE city = 'Los Angeles'"
        d1, d2 = make_engine(), make_engine()
        s1, s2 = d1.connect(), d2.connect()
        prepared = s1.prepare(sql)
        assert isinstance(prepared, PreparedQuery)
        first = prepared.execute()
        again = prepared.execute()
        plain_first = s2.execute(sql)
        plain_again = s2.execute(sql)
        assert relations_identical(first.relation, plain_first.relation)
        assert relations_identical(again.relation, plain_again.relation)
        assert relations_identical(d1.table("cities"), d2.table("cities"))

    def test_parameter_binding_matches_literals(self):
        d1, d2 = make_engine(), make_engine()
        s1, s2 = d1.connect(), d2.connect()
        prepared = s1.prepare("SELECT zip FROM cities WHERE city = ?")
        assert prepared.param_count == 1
        for value in ("Los Angeles", "New York", "San Francisco"):
            bound = prepared.execute(value)
            literal = s2.execute(f"SELECT zip FROM cities WHERE city = '{value}'")
            assert relations_identical(bound.relation, literal.relation)
        assert relations_identical(d1.table("cities"), d2.table("cities"))
        # The log records the bound SQL, not the placeholder.
        assert s1.query_log[-1].sql == (
            "SELECT zip FROM cities WHERE city = 'San Francisco'"
        )

    def test_range_parameters(self):
        d = make_engine()
        session = d.connect()
        prepared = session.prepare(
            "SELECT city FROM cities WHERE zip >= ? AND zip < ?"
        )
        assert prepared.param_count == 2
        assert len(prepared.execute(0, 99999)) == 5

    def test_wrong_arity_raises(self):
        session = make_engine().connect()
        prepared = session.prepare("SELECT zip FROM cities WHERE city = ?")
        with pytest.raises(QueryError):
            prepared.execute()
        with pytest.raises(QueryError):
            prepared.execute("Los Angeles", "New York")

    def test_unbound_execution_rejected(self):
        session = make_engine().connect()
        with pytest.raises(QueryError):
            session.execute("SELECT zip FROM cities WHERE city = ?")

    def test_explain_shows_cleaning_without_replanning(self):
        session = make_engine().connect()
        prepared = session.prepare("SELECT zip FROM cities WHERE city = ?")
        assert "CleanSigma" in prepared.explain()
        assert prepared.explain() == prepared.plan.pretty()

    def test_rules_added_after_prepare_are_picked_up(self):
        d = Daisy(config=DaisyConfig(use_cost_model=False))
        d.register_table("cities", cities_rel())
        session = d.connect()
        prepared = session.prepare("SELECT zip FROM cities WHERE city = ?")
        assert "CleanSigma" not in prepared.explain()
        d.add_rule("cities", "zip -> city", name="phi")
        # The stale plan is rebuilt: the new rule's cleaning operator runs.
        assert "CleanSigma" in prepared.explain()
        result = prepared.execute("Los Angeles")
        assert len(result) == 3  # includes the repaired row
        assert d.probabilistic_cells("cities") > 0

    def test_quote_containing_parameter_logs_parseable_sql(self):
        from repro.query.sql import parse_sql

        d = Daisy(config=DaisyConfig(use_cost_model=False))
        d.register_table(
            "t",
            Relation.from_rows(
                [("name", ColumnType.STRING)], [("O'Brien",), ("Smith",)]
            ),
        )
        session = d.connect()
        prepared = session.prepare("SELECT name FROM t WHERE name = ?")
        result = prepared.execute("O'Brien")
        assert len(result) == 1
        logged = session.query_log[-1].sql
        assert parse_sql(logged).conditions[0].value == "O'Brien"


def _hospital_setup():
    """Hospital fixture + per-city workload (each query touches ϕ1)."""
    inst = hospital.generate_instance(num_rows=300, seed=1)
    d = Daisy(config=DaisyConfig(use_cost_model=False))
    d.register_table("hospital", inst.dirty)
    for fd in inst.rules:
        d.add_rule("hospital", fd)
    cities = sorted(
        {v for v in inst.master.distinct_values("city") if isinstance(v, str)}
    )
    queries = [
        f"SELECT provider_id, city FROM hospital WHERE city = '{c}'"
        for c in cities
    ]
    return d, queries


def _airquality_setup():
    """Air-quality fixture + the per-state analyst workload (aggregates)."""
    inst = airquality.generate_instance(
        600, num_states=10, violation_level="low", seed=1
    )
    d = Daisy(config=DaisyConfig(use_cost_model=False))
    d.register_table("airquality", inst.dirty)
    d.add_rule("airquality", inst.fd)
    queries = [
        "SELECT year, AVG(co_mean) AS avg_co FROM airquality "
        f"WHERE state_code = {s} GROUP BY year"
        for s in range(10)
    ]
    return d, queries


class TestExecuteBatch:
    @pytest.mark.parametrize("setup", [_hospital_setup, _airquality_setup])
    def test_batch_matches_sequential_and_saves_work(self, setup):
        d_seq, queries = setup()
        session_seq = d_seq.connect()
        sequential = [session_seq.execute(q) for q in queries]
        seq_work = d_seq.total_work()

        d_batch, queries = setup()
        session_batch = d_batch.connect()
        work_before = d_batch.total_work()  # rule registration precompute
        batch = session_batch.execute_batch(queries)
        batch_work = d_batch.total_work()

        assert isinstance(batch, BatchResult)
        assert len(batch) == len(sequential)
        for batched, plain in zip(batch, sequential):
            assert relations_identical(batched.relation, plain.relation)
        # The in-place repaired datasets end up byte-identical too.
        table = list(d_seq.states)[0]
        assert relations_identical(d_batch.table(table), d_seq.table(table))
        # One shared pass per rule group beats per-query detection.
        assert batch_work < seq_work
        assert batch.groups, "expected at least one shared rule group"
        assert batch.report.total_work_units == batch_work - work_before

    def test_rule_groups_cover_same_rule_queries(self):
        d, queries = _airquality_setup()
        batch = d.connect().execute_batch(queries)
        assert len(batch.groups) == 1
        group = batch.groups[0]
        assert group.query_indices == list(range(len(queries)))
        assert group.table == "airquality"
        assert group.rule_keys == ("phi_county",)

    def test_batch_matches_a_loop_of_execute(self):
        """Sequential execution is a plain loop over ``session.execute``.

        The batch returns the loop's answers and leaves the same repaired
        relation; both sides' query logs account for every work unit their
        engine charged, and the shared pass never charges more than the loop.
        """
        d_loop, queries = _hospital_setup()
        session = d_loop.connect()
        before = d_loop.total_work()
        looped = [session.execute(q) for q in queries]
        loop_work = d_loop.total_work() - before
        assert sum(e.work_units for e in session.query_log) == loop_work

        d_batch, queries = _hospital_setup()
        before = d_batch.total_work()
        batch = d_batch.connect().execute_batch(queries)
        batch_work = d_batch.total_work() - before
        assert sum(e.work_units for e in batch.report.entries) == batch_work
        assert batch.report.total_work_units == batch_work

        assert len(batch) == len(looped)
        for batched, plain in zip(batch, looped):
            assert relations_identical(batched.relation, plain.relation)
        assert relations_identical(d_batch.table("hospital"), d_loop.table("hospital"))
        assert 0 < batch_work <= loop_work

    def test_batch_accepts_prepared_and_ast_queries(self):
        d = make_engine()
        session = d.connect()
        prepared = session.prepare(
            "SELECT zip FROM cities WHERE city = 'Los Angeles'"
        )
        ast_query = Query(
            tables=["cities"],
            projection=[ColumnRef("city")],
            conditions=[Condition(ColumnRef("zip"), "=", 10001)],
        )
        batch = session.execute_batch([prepared, ast_query, "SELECT * FROM cities"])
        assert len(batch) == 3
        assert len(batch[0]) == 3  # repaired row joins the LA answer
        assert batch.report.entries[1].sql == (
            "SELECT city FROM cities WHERE zip = 10001"
        )

    def test_batch_rejects_unbound_prepared(self):
        session = make_engine().connect()
        prepared = session.prepare("SELECT zip FROM cities WHERE city = ?")
        with pytest.raises(QueryError):
            session.execute_batch([prepared])

    def test_batch_rejects_unbound_sql_before_any_cleaning(self):
        d = make_engine()
        session = d.connect()
        with pytest.raises(QueryError):
            session.execute_batch(
                [
                    "SELECT city FROM cities WHERE zip = ?",
                    "SELECT city FROM cities WHERE zip = 10001",
                ]
            )
        # The batch failed up front: no shared pass ran, nothing mutated.
        assert d.probabilistic_cells("cities") == 0
        assert session.query_log == []

    def test_rule_free_queries_take_sequential_path(self):
        d = Daisy(config=DaisyConfig(use_cost_model=False))
        d.register_table(
            "t",
            Relation.from_rows(
                [("a", ColumnType.INT), ("b", ColumnType.INT)],
                [(1, 10), (2, 20)],
            ),
        )
        batch = d.connect().execute_batch(
            ["SELECT a FROM t WHERE b >= 10", "SELECT b FROM t WHERE a = 2"]
        )
        assert batch.groups == []
        assert [len(r) for r in batch] == [2, 1]

    def test_batch_entries_feed_session_log(self):
        d, queries = _airquality_setup()
        session = d.connect()
        batch = session.execute_batch(queries)
        assert len(session.query_log) == len(queries)
        assert [e.sql for e in batch.report.entries] == list(queries)

    def test_batch_entry_totals_include_shared_passes(self):
        d, queries = _airquality_setup()
        work_before = d.total_work()
        batch = d.connect().execute_batch(queries)
        # Shared-pass cost is attributed to each group's first member, so
        # the per-entry tallies reconcile with the batch totals.
        assert sum(e.work_units for e in batch.report.entries) == (
            d.total_work() - work_before
        )
        assert sum(e.errors_fixed for e in batch.report.entries) == sum(
            g.report.errors_fixed for g in batch.groups
        ) > 0

    def test_full_footprint_batch_repairs_match_offline(self):
        # The queries' ranges cover the whole orderkey domain, so the shared
        # pass repairs the whole table — row for row what the offline
        # cleaner produces.  (Answers are not compared with a loop of
        # execute: lhs-range filters make those order-dependent.)
        def setup():
            dirty, fd, _ = ssb.dirty_lineorder(
                240, 30, 30, error_group_fraction=0.25, seed=103
            )
            queries = workloads.random_selectivity_queries(
                "lineorder", "orderkey", 30, 8, seed=103,
                projection="orderkey, suppkey",
            )
            return dirty, fd, queries

        dirty, fd, queries = setup()
        d = Daisy(use_cost_model=False)
        d.register_table("lineorder", dirty)
        d.add_rule("lineorder", fd)
        with d.connect() as session:
            batch = session.execute_batch(queries)
        assert len(batch) == len(queries)
        assert d.probabilistic_cells("lineorder") > 0

        dirty, fd, _ = setup()
        offline, _report = OfflineCleaner().clean(dirty, [fd])
        repaired = d.table("lineorder")
        assert len(repaired) == len(offline)
        offline_by_tid = offline.tid_index()
        for row in repaired.rows:
            assert row.values == offline_by_tid[row.tid].values


class TestCostModelState:
    def test_unrelated_registration_keeps_observations(self):
        d = Daisy()  # cost model on
        d.register_table("cities", cities_rel())
        d.add_rule("cities", "zip -> city", name="phi")
        session = d.connect()
        session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
        model = session.cost_models["cities"]
        assert model is not None and model.observations
        # Registering an unrelated table must not reset cities' model.
        d.register_table(
            "other",
            Relation.from_rows([("a", ColumnType.INT)], [(1,)], name="other"),
        )
        assert session._cost_model("cities") is model
        # A new rule on cities itself still triggers the rebuild.
        d.add_rule("cities", "city -> zip", name="phi2")
        assert session._cost_model("cities") is not model


class TestPlanCache:
    """The session's cross-query plan cache (prepare's benefit for ad-hoc
    execute calls): structure-keyed, constants erased, invalidated by rule
    registration."""

    def test_same_structure_different_constants_hits(self):
        d = make_engine()
        with d.connect() as session:
            r1 = session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            assert (session.plan_cache_hits, session.plan_cache_misses) == (0, 1)
            r2 = session.execute("SELECT zip FROM cities WHERE city = 'New York'")
            assert (session.plan_cache_hits, session.plan_cache_misses) == (1, 1)
            assert len(r1) == 3 and len(r2) == 2  # cleaning relaxed tid 3 in

    def test_cached_plan_results_match_uncached_session(self):
        queries = [
            "SELECT zip FROM cities WHERE city = 'Los Angeles'",
            "SELECT zip FROM cities WHERE city = 'San Francisco'",
            "SELECT zip FROM cities WHERE city = 'New York'",
        ]
        d_cached, d_uncached = make_engine(), make_engine()
        with d_cached.connect() as cached, d_uncached.connect() as uncached:
            for sql in queries:
                via_cache = cached.execute(sql)
                uncached._plan_cache.clear()  # force replanning every time
                direct = uncached.execute(sql)
                assert relations_identical(via_cache.relation, direct.relation)
            assert cached.plan_cache_hits == 2
            assert uncached.plan_cache_hits == 0
        assert relations_identical(
            d_cached.table("cities"), d_uncached.table("cities")
        )

    def test_different_structure_misses(self):
        d = make_engine()
        with d.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            session.execute("SELECT city FROM cities WHERE zip = 9001")
            session.execute("SELECT zip FROM cities WHERE city != 'Los Angeles'")
            assert session.plan_cache_hits == 0
            assert session.plan_cache_misses == 3

    def test_rule_registration_invalidates(self):
        d = Daisy(config=DaisyConfig(use_cost_model=False))
        d.register_table("cities", cities_rel())
        with d.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            d.add_rule("cities", "zip -> city", name="phi")
            # Same structure, but the rules epoch moved: the stale rule-free
            # plan must not be reused — the new plan carries the clean node.
            result = session.execute(
                "SELECT zip FROM cities WHERE city = 'Los Angeles'"
            )
            assert session.plan_cache_hits == 0
            assert session.plan_cache_misses == 2
            assert result.report.errors_fixed > 0

    def test_ast_queries_share_cache_with_sql(self):
        d = make_engine()
        query = Query(
            tables=["cities"],
            projection=[ColumnRef("zip")],
            conditions=[Condition(ColumnRef("city"), "=", "New York")],
        )
        with d.connect() as session:
            session.execute("SELECT zip FROM cities WHERE city = 'Los Angeles'")
            session.execute(query)
            assert session.plan_cache_hits == 1


class TestPlanCacheAliasing:
    """Constants-erased keys must not alias structurally different queries
    — and where aliasing is intentional (constants only), a cache hit must
    never replay the earlier query's constants."""

    @staticmethod
    def _key(query):
        from repro.api.session import _plan_structure_key

        return _plan_structure_key(query)

    def _zip_query(self, value):
        return Query(
            tables=["cities"],
            projection=[ColumnRef("city")],
            conditions=[Condition(ColumnRef("zip"), "=", value)],
        )

    def test_parameter_arity_does_not_alias(self):
        from repro.query.ast import Parameter

        one_param_twice = Query(
            tables=["cities"],
            projection=[ColumnRef("city")],
            conditions=[
                Condition(ColumnRef("zip"), ">=", Parameter(0)),
                Condition(ColumnRef("zip"), "<=", Parameter(0)),
            ],
        )
        two_params = Query(
            tables=["cities"],
            projection=[ColumnRef("city")],
            conditions=[
                Condition(ColumnRef("zip"), ">=", Parameter(0)),
                Condition(ColumnRef("zip"), "<=", Parameter(1)),
            ],
        )
        assert self._key(one_param_twice) != self._key(two_params)

    def test_parameter_vs_constant_does_not_alias(self):
        from repro.query.ast import Parameter

        with_param = self._zip_query(Parameter(0))
        with_constant = self._zip_query(9001)
        assert self._key(with_param) != self._key(with_constant)

    def test_cross_type_constants_alias_safely(self):
        """1 vs 1.0 vs True hash equal; erased constants must alias to the
        *same opaque marker*, and the shared plan must serve each query its
        own constants."""
        assert self._key(self._zip_query(9001)) == self._key(
            self._zip_query(9001.0)
        )
        assert self._key(self._zip_query(9001)) == self._key(
            self._zip_query(True)
        )
        d_cached, d_cold = make_engine(), make_engine()
        with d_cached.connect() as cached, d_cold.connect() as cold:
            by_int = cached.execute(self._zip_query(10001))
            by_float = cached.execute(self._zip_query(9001.0))
            assert cached.plan_cache_hits == 1  # aliased on purpose
            # The hit served the *new* constants, not the cached query's:
            # results match a session that re-plans every query.
            cold_int = cold.execute(self._zip_query(10001))
            cold._plan_cache.clear()
            cold_float = cold.execute(self._zip_query(9001.0))
            assert relations_identical(by_int.relation, cold_int.relation)
            assert relations_identical(by_float.relation, cold_float.relation)
            assert by_int.plain_rows() != by_float.plain_rows()

    def test_cache_hit_never_replays_cached_constants(self):
        d = make_engine()
        with d.connect() as session:
            la = session.execute(
                "SELECT zip FROM cities WHERE city = 'Los Angeles'"
            )
            ny = session.execute(
                "SELECT zip FROM cities WHERE city = 'New York'"
            )
            assert session.plan_cache_hits == 1
            assert la.plain_rows() != ny.plain_rows()
            assert all(z == (10001,) for z in ny.plain_rows())


class TestSqlLiteralRoundTrip:
    """Query.to_sql() renderings must parse back to equal constants."""

    @staticmethod
    def _round_trip(value):
        from repro.query.sql import parse_sql

        query = Query(
            tables=["t"],
            projection=[ColumnRef("a")],
            conditions=[Condition(ColumnRef("a"), "=", value)],
        )
        back = parse_sql(query.to_sql())
        got = back.conditions[0].value
        # Idempotence: rendering the parsed query again is stable.
        assert parse_sql(back.to_sql()).conditions[0].value == got
        return got

    @pytest.mark.parametrize(
        "value",
        [
            "plain",
            "o'brien",                  # single quote -> doubled-quote escape
            'he said "hi"',             # double quote inside single quotes
            "both \" and ' quotes",     # previously unparseable
            "",                         # empty string
            0,
            -17,
            3.25,
            -0.5,
            1e20,                       # repr() uses exponent notation
            2.5e-07,
            True,
            False,
            None,                       # renders as NULL
        ],
    )
    def test_literal_round_trips(self, value):
        got = self._round_trip(value)
        assert got == value
        assert type(got) is type(value)

    def test_non_finite_floats_are_rejected(self):
        import math

        query = Query(
            tables=["t"],
            select_star=True,
            conditions=[Condition(ColumnRef("a"), "<", math.inf)],
        )
        with pytest.raises(QueryError, match="non-finite"):
            query.to_sql()

    def test_unrenderable_types_are_rejected(self):
        query = Query(
            tables=["t"],
            select_star=True,
            conditions=[Condition(ColumnRef("a"), "=", object())],
        )
        with pytest.raises(QueryError, match="cannot render"):
            query.to_sql()

    def test_query_log_records_parseable_sql_for_ast_queries(self):
        from repro.query.sql import parse_sql

        d = make_engine()
        query = Query(
            tables=["cities"],
            projection=[ColumnRef("zip")],
            conditions=[Condition(ColumnRef("city"), "=", "L'Aquila")],
        )
        with d.connect() as session:
            session.execute(query)
            sql = session.query_log[-1].sql
        assert parse_sql(sql).conditions[0].value == "L'Aquila"

    def test_unrenderable_constants_do_not_gate_execution(self):
        """to_sql() raising must never block the execute path: the query
        log falls back to a marker and the query still runs."""
        from decimal import Decimal

        rel = Relation.from_rows(
            [("a", ColumnType.FLOAT)], [(1.5,), (2.5,)], name="t"
        )
        d = Daisy(config=DaisyConfig(use_cost_model=False))
        d.register_table("t", rel)
        query = Query(
            tables=["t"],
            select_star=True,
            conditions=[Condition(ColumnRef("a"), "=", Decimal("1.5"))],
        )
        with d.connect() as session:
            result = session.execute(query)
            assert result.plain_rows() == [(1.5,)]
            assert "unrenderable" in session.query_log[-1].sql

    def test_prepared_binding_renders_parseable_log_sql(self):
        from repro.query.sql import parse_sql

        d = make_engine()
        with d.connect() as session:
            prepared = session.prepare("SELECT zip FROM cities WHERE city = ?")
            prepared.execute("O'Fallon")
            sql = session.query_log[-1].sql
        assert parse_sql(sql).conditions[0].value == "O'Fallon"
