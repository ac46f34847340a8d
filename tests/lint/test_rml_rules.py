"""Per-rule unit tests: one true positive, one pragma suppression, and
one sanctioned (negative) case per rule, on inline fixture snippets.

``lint_source`` lints a snippet as a one-file project at a fake
repo-relative path, so each rule's scoping is exercised exactly as in a
real run.
"""

from __future__ import annotations

import textwrap

from repro.lint.project import lint_source
from repro.lint.rules import make_rules
from repro.lint.rules.rml006_oid_literals import looks_like_oid


def run(source: str, path: str, codes: str):
    rules = [r for r in make_rules() if r.code in codes.split(",")]
    return lint_source(textwrap.dedent(source), rules, path=path)


IN_SCOPE = "src/repro/collectors/somefile.py"


class TestRML001SimClock:
    """The cases of the retired per-file clock rule, RML001, which the
    transitive clock rule RML103 now reports (it also reads module bodies
    and private helpers)."""

    def test_wall_clock_call_flagged(self):
        vs = run(
            """
            import time

            def poll():
                return time.time()
            """,
            IN_SCOPE,
            "RML103",
        )
        assert [v.code for v in vs] == ["RML103"]
        assert "time.time" in vs[0].message

    def test_aliased_and_from_imports_flagged(self):
        vs = run(
            """
            import time as t
            from time import sleep

            def nap():
                t.monotonic()
                sleep(1)
            """,
            IN_SCOPE,
            "RML103",
        )
        assert [v.code for v in vs] == ["RML103", "RML103"]

    def test_datetime_now_flagged(self):
        vs = run(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            IN_SCOPE,
            "RML103",
        )
        assert [v.code for v in vs] == ["RML103"]

    def test_pragma_suppresses(self):
        vs = run(
            """
            import time

            def poll():
                return time.time()  # remoslint: disable=RML103
            """,
            IN_SCOPE,
            "RML103",
        )
        assert vs == []

    def test_engine_clock_and_timebase_sanctioned(self):
        vs = run(
            """
            from repro import obs

            def poll(net):
                t0 = obs.wall_now()
                return net.engine.now, obs.wall_now() - t0
            """,
            IN_SCOPE,
            "RML103",
        )
        assert vs == []

    def test_out_of_scope_layer_ignored(self):
        vs = run(
            "import time\nt = time.time()\n",
            "src/repro/cli.py",  # CLI may read the wall clock
            "RML103",
        )
        assert vs == []

    def test_module_level_read_flagged(self):
        vs = run("import time\nT0 = time.time()\n", IN_SCOPE, "RML103")
        assert [(v.code, v.line) for v in vs] == [("RML103", 2)]

    def test_private_helper_nobody_calls_flagged(self):
        vs = run(
            """
            import time

            def _stamp():
                return time.monotonic()
            """,
            IN_SCOPE,
            "RML103",
        )
        assert [(v.code, v.line) for v in vs] == [("RML103", 5)]

    def test_bare_reference_is_not_a_call(self):
        # given up with RML001: a reference reads no clock, and a call
        # made through it later is one the call graph cannot follow
        vs = run(
            """
            import time

            def clock():
                return time.monotonic
            """,
            IN_SCOPE,
            "RML103",
        )
        assert vs == []


class TestRML002Rng:
    def test_module_level_random_flagged(self):
        vs = run(
            """
            import random

            def jitter():
                return random.random()
            """,
            "src/repro/netsim/traffic2.py",
            "RML002",
        )
        assert [v.code for v in vs] == ["RML002"]

    def test_unseeded_constructors_flagged(self):
        vs = run(
            """
            import random
            import numpy as np

            r1 = random.Random()
            r2 = np.random.default_rng()
            """,
            "src/repro/netsim/traffic2.py",
            "RML002",
        )
        assert [v.code for v in vs] == ["RML002", "RML002"]

    def test_seeded_constructors_sanctioned(self):
        vs = run(
            """
            import random
            import numpy as np

            r1 = random.Random(42)
            r2 = np.random.default_rng(7)

            def gen(rng: np.random.Generator) -> float:
                return rng.random()
            """,
            "src/repro/netsim/traffic2.py",
            "RML002",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            import random
            x = random.random()  # remoslint: disable=RML002
            """,
            "src/repro/netsim/traffic2.py",
            "RML002",
        )
        assert vs == []

    def test_rng_module_exempt(self):
        vs = run(
            "import numpy as np\nr = np.random.default_rng()\n",
            "src/repro/common/rng.py",
            "RML002",
        )
        assert vs == []

    def test_local_variable_named_random_not_flagged(self):
        vs = run(
            """
            from repro.common.rng import make_rng

            random = make_rng(0)
            x = random.random()
            """,
            "src/repro/netsim/traffic2.py",
            "RML002",
        )
        assert vs == []


class TestRML004Status:
    """The cases of the retired per-file status rule, RML004: a local
    drop is now reported by RML104, beside the hand-offs it follows."""

    def test_status_drop_flagged(self):
        vs = run(
            """
            def plan(session, a, b):
                ans = session.flow_info(a, b)
                print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
            "RML104",
        )
        assert [v.code for v in vs] == ["RML104"]

    def test_for_loop_answers_flagged(self):
        vs = run(
            """
            def plan(session, pairs):
                for ans in session.flow_info_many(pairs):
                    print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
            "RML104",
        )
        assert [v.code for v in vs] == ["RML104"]

    def test_status_checked_sanctioned(self):
        vs = run(
            """
            def plan(session, a, b):
                ans = session.flow_info(a, b)
                if ans.ok:
                    print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
            "RML104",
        )
        assert vs == []

    def test_escaping_answer_sanctioned(self):
        # returning/passing the answer moves the obligation to the caller
        vs = run(
            """
            def fetch(session, a, b):
                ans = session.flow_info(a, b)
                return ans

            def relay(session, a, b, sink):
                ans = session.flow_info(a, b)
                sink(ans)
            """,
            "src/repro/apps/thing.py",
            "RML104",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            def plan(session, a, b):
                ans = session.flow_info(a, b)  # remoslint: disable=RML104
                print(ans.available_bps)
            """,
            "src/repro/apps/thing.py",
            "RML104",
        )
        assert vs == []


class TestRML005BlindExcept:
    def test_bare_except_flagged(self):
        vs = run(
            """
            def poll(agent):
                try:
                    return agent.get()
                except:
                    return None
            """,
            IN_SCOPE,
            "RML005",
        )
        assert [v.code for v in vs] == ["RML005"]

    def test_blind_except_exception_flagged(self):
        vs = run(
            """
            def poll(agent):
                try:
                    return agent.get()
                except Exception:
                    pass
            """,
            IN_SCOPE,
            "RML005",
        )
        assert [v.code for v in vs] == ["RML005"]

    def test_containment_with_logging_sanctioned(self):
        vs = run(
            """
            def poll(agent, log):
                try:
                    return agent.get()
                except Exception as exc:
                    log.warning("agent failed: %r", exc)
                    return None
            """,
            IN_SCOPE,
            "RML005",
        )
        assert vs == []

    def test_narrow_except_sanctioned(self):
        vs = run(
            """
            from repro.common.errors import SnmpError

            def poll(agent):
                try:
                    return agent.get()
                except SnmpError:
                    return None
            """,
            IN_SCOPE,
            "RML005",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            """
            def poll(agent):
                try:
                    return agent.get()
                except Exception:  # remoslint: disable=RML005
                    pass
            """,
            IN_SCOPE,
            "RML005",
        )
        assert vs == []

    def test_out_of_scope_layer_ignored(self):
        vs = run(
            "try:\n    pass\nexcept Exception:\n    pass\n",
            "src/repro/rps/fit.py",
            "RML005",
        )
        assert vs == []


class TestRML006OidLiterals:
    def test_raw_oid_flagged(self):
        vs = run(
            'TARGET = "1.3.6.1.2.1.2.2.1.10"\n',
            "src/repro/collectors/snmp_collector.py",
            "RML006",
        )
        assert [v.code for v in vs] == ["RML006"]

    def test_oid_module_exempt(self):
        vs = run('MIB2 = "1.3.6.1.2.1"\n', "src/repro/snmp/oid.py", "RML006")
        assert vs == []

    def test_ip_and_version_strings_sanctioned(self):
        vs = run(
            'ip = "10.0.0.1"\nversion = "1.2.3"\nnet = "192.168.1.0"\n',
            "src/repro/collectors/snmp_collector.py",
            "RML006",
        )
        assert vs == []

    def test_pragma_suppresses(self):
        vs = run(
            'T = "1.3.6.1.99"  # remoslint: disable=RML006\n',
            "src/repro/collectors/snmp_collector.py",
            "RML006",
        )
        assert vs == []

    def test_classifier(self):
        assert looks_like_oid("1.3.6.1.99")
        assert looks_like_oid("1.3.6.1.2.1.2.2.1.10.3")
        assert looks_like_oid(".1.3.6.4")
        assert not looks_like_oid("10.0.0.1")  # IPv4: 4 parts, not 1.3.6.
        assert not looks_like_oid("1.2.3")
        assert not looks_like_oid("hello")


class TestEveryRuleHasFixtureCoverage:
    def test_all_eight_rules_exist(self):
        codes = {r.code for r in make_rules()}
        assert codes == {"RML002", "RML005", "RML006"} | {f"RML10{i}" for i in range(1, 6)}
