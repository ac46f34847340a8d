"""A deferred table answers as if it had been loaded all along.

``MibStore.defer(root, load)`` registers a table that is loaded by the
first operation that could reach a key under ``root``.  The property:
a store with some of its tables deferred, and the eager twin that loaded
every table up front, give the same answer to every operation of any
sequence of GET, bulk GETNEXT (reads that run over a table's edge
included), ``put`` / ``remove`` into a deferred subtree, ``oids()`` and
``len()``.  Keys are drawn from a small alphabet so that tables nest,
overlap, sit side by side and share keys with scalars.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import NoSuchObjectError
from repro.snmp.mib import MibStore
from repro.snmp.oid import Oid

#: every key lives under this arc, so a read from () sees them all
BASE = (1, 3)

parts = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
values = st.integers(0, 99)
#: a table: its root, then cells as (row suffix, value)
tables = st.tuples(parts, st.lists(st.tuples(parts, values), max_size=12), st.booleans())
scalars = st.lists(st.tuples(parts, values), max_size=6)


def operations(keys: list[tuple[int, ...]]) -> st.SearchStrategy:
    """Operations on random OIDs and on the keys a layout holds, so
    that puts and removes land on a deferred table's own cells."""
    held = st.sampled_from(keys) if keys else parts
    oids = st.one_of(parts, held).map(lambda p: Oid(BASE + p))
    return st.one_of(
        st.tuples(st.just("get"), oids),
        st.tuples(st.just("contains"), oids),
        st.tuples(st.just("next"), st.one_of(oids, st.just(Oid(()))), st.integers(1, 40)),
        st.tuples(st.just("put"), oids, values),
        st.tuples(st.just("remove"), oids),
        st.tuples(st.just("oids")),
        st.tuples(st.just("len")),
    )


def _loader(root: Oid, cells: list[tuple[tuple[int, ...], int]]):
    def load(store: MibStore) -> None:
        store.put_column(root, cells)

    return load


def _twins(layout, scalar_cells) -> tuple[MibStore, MibStore]:
    """(eager, deferred): the same puts in the same order, with the
    tables marked deferred registered unloaded in the second."""
    eager, lazy = MibStore(), MibStore()
    for suffix, value in scalar_cells:
        eager.put(Oid(BASE + suffix), value)
        lazy.put(Oid(BASE + suffix), value)
    for root_parts, cells, deferred in layout:
        root = Oid(BASE + root_parts)
        eager.put_column(root, cells)
        if deferred:
            lazy.defer(root, _loader(root, cells))
        else:
            lazy.put_column(root, cells)
    return eager, lazy


def _apply(store: MibStore, op) -> object:
    kind = op[0]
    try:
        if kind == "get":
            return store.get(op[1])
        if kind == "contains":
            return op[1] in store
        if kind == "next":
            return store.get_next_n(op[1], op[2])
        if kind == "put":
            return store.put(op[1], op[2])
        if kind == "remove":
            return store.remove(op[1])
        if kind == "oids":
            return store.oids()
        return len(store)
    except NoSuchObjectError as exc:
        return ("NoSuchObject", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.lists(tables, max_size=5), scalars, st.data())
def test_a_deferred_store_answers_as_its_eager_twin(layout, scalar_cells, data):
    eager, lazy = _twins(layout, scalar_cells)
    keys = [root + suffix for root, cells, _ in layout for suffix, _ in cells]
    keys += [root for root, _, _ in layout] + [suffix for suffix, _ in scalar_cells]
    sequence = data.draw(st.lists(operations(keys), max_size=25))
    for step, op in enumerate(sequence):
        assert _apply(lazy, op) == _apply(eager, op), (step, op)
    # and whatever is still unloaded is exactly what the eager store holds
    assert lazy.get_next_n(Oid(()), len(eager) + 1) == eager.get_next_n(
        Oid(()), len(eager) + 1
    )


def test_a_table_nested_in_an_earlier_one_loads_after_it():
    outer, inner = Oid(BASE + (1,)), Oid(BASE + (1, 2))
    store = MibStore()
    store.defer(outer, _loader(outer, [((2, 5), 1)]))
    store.defer(inner, _loader(inner, [((5,), 2)]))
    assert store.get(Oid(BASE + (1, 2, 5))) == 2  # the later table's, as if eager


@settings(max_examples=200, deadline=None)
@given(st.lists(tables, min_size=1, max_size=5), parts, st.integers(1, 40))
def test_a_bulk_read_loads_only_tables_it_could_reach(layout, start_parts, n):
    """A read loads a deferred table only when one of the keys it
    returns could have come from that table; a table beyond its last
    key stays unloaded."""
    loaded: list[tuple[int, ...]] = []
    lazy = MibStore()
    for root_parts, cells, deferred in layout:
        root = Oid(BASE + root_parts)
        if deferred:
            def load(store, root=root, cells=cells):
                loaded.append(root.parts)
                store.put_column(root, cells)

            lazy.defer(root, load)
        else:
            lazy.put_column(root, cells)
    start = Oid(BASE + start_parts)
    got = lazy.get_next_n(start, n)
    last = got[-1][0].parts if len(got) == n else None
    for root_parts, _cells, deferred in layout:
        root = BASE + root_parts
        if deferred and root not in loaded:
            end = root[:-1] + (root[-1] + 1,)
            # an unloaded table lies wholly before the start or past the last key
            assert end <= start.parts + (0,) or (last is not None and root > last)
