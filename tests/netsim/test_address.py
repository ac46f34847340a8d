"""Unit and property tests for IPv4/MAC addressing."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.address import (
    IPv4Address,
    IPv4Network,
    MacAddress,
    MacAllocator,
    PrefixTable,
    ipv4_octets,
    ipv4_text,
    netmask_prefixlen,
)


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        a = IPv4Address("10.1.2.3")
        assert str(a) == "10.1.2.3"
        assert a.octets() == (10, 1, 2, 3)

    def test_int_roundtrip(self):
        a = IPv4Address("192.168.0.1")
        assert IPv4Address(int(a)) == a

    def test_copy_constructor(self):
        a = IPv4Address("1.2.3.4")
        assert IPv4Address(a) == a

    def test_ordering(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert IPv4Address("9.255.255.255") < IPv4Address("10.0.0.0")

    def test_hashable(self):
        s = {IPv4Address("10.0.0.1"), IPv4Address("10.0.0.1")}
        assert len(s) == 1

    @pytest.mark.parametrize("bad", ["10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"])
    def test_bad_strings(self, bad):
        with pytest.raises(ValueError):
            IPv4Address(bad)

    def test_bad_int(self):
        with pytest.raises(ValueError):
            IPv4Address(2**32)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            IPv4Address(1.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_str_roundtrip_property(self, v):
        a = IPv4Address(v)
        assert IPv4Address(str(a)).value == v

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_order_matches_int_order(self, x, y):
        assert (IPv4Address(x) < IPv4Address(y)) == (x < y)


class TestIPv4Network:
    def test_contains(self):
        n = IPv4Network("10.1.0.0/16")
        assert IPv4Address("10.1.255.255") in n
        assert IPv4Address("10.2.0.0") not in n

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            IPv4Network("10.1.0.1/16")

    def test_bad_prefixlen(self):
        with pytest.raises(ValueError):
            IPv4Network("10.0.0.0/33")

    def test_needs_slash(self):
        with pytest.raises(ValueError):
            IPv4Network("10.0.0.0")

    def test_host_enumeration_skips_network_and_broadcast(self):
        n = IPv4Network("10.0.0.0/30")
        hosts = n.hosts()
        assert [str(h) for h in hosts] == ["10.0.0.1", "10.0.0.2"]

    def test_host_index(self):
        n = IPv4Network("10.0.0.0/24")
        assert str(n.host(1)) == "10.0.0.1"
        with pytest.raises(ValueError):
            n.host(256)

    def test_netmask(self):
        assert ipv4_text(IPv4Network("10.0.0.0/24").netmask_int) == "255.255.255.0"
        assert ipv4_text(IPv4Network("0.0.0.0/0").netmask_int) == "0.0.0.0"

    def test_overlaps(self):
        a = IPv4Network("10.0.0.0/16")
        b = IPv4Network("10.0.1.0/24")
        c = IPv4Network("10.1.0.0/16")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_str_roundtrip(self):
        n = IPv4Network("172.16.0.0/12")
        assert IPv4Network(str(n)) == n

    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_network_contains_its_base(self, v, plen):
        base = v & ((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0)
        n = IPv4Network(str(IPv4Address(base)), plen)
        assert IPv4Address(base) in n
        assert n.num_addresses == 1 << (32 - plen)


def _linear_match(rows, addr):
    """The scan ``Router.lookup_route``, ``Discovery.lpm``,
    ``SnmpCollectorConfig.gateway_for`` and the SLP directory each
    spelled for themselves, kept verbatim as the oracle: only a strictly
    longer prefix displaces the best so far."""
    best = None
    for prefix, row in rows:
        if addr in prefix and (best is None or prefix.prefixlen > best[0].prefixlen):
            best = (prefix, row)
    return None if best is None else best[1]


_U32 = st.integers(0, 2**32 - 1)


@st.composite
def _rows_and_addresses(draw):
    """Prefixes cut at many lengths out of a few seed addresses, so
    nesting, overlap and outright duplicates are the common case, and
    addresses at, next to and far from those seeds."""
    seeds = draw(st.lists(_U32, min_size=1, max_size=4))
    plens = st.one_of(st.sampled_from([0, 8, 16, 24, 31, 32]), st.integers(0, 32))
    cuts = draw(st.lists(st.tuples(st.sampled_from(seeds), plens), max_size=14))
    rows = [
        (IPv4Network(IPv4Address(v & IPv4Network._mask_for(plen)), plen), [i])
        for i, (v, plen) in enumerate(cuts)
    ]
    near = st.builds(lambda v, bit: v ^ (1 << bit), st.sampled_from(seeds), st.integers(0, 31))
    addrs = draw(st.lists(st.one_of(st.sampled_from(seeds), near, _U32), min_size=1, max_size=12))
    return rows, [IPv4Address(a) for a in addrs]


class TestPrefixTable:
    def test_longest_prefix_wins_whatever_the_order(self):
        wide, narrow = IPv4Network("10.0.0.0/8"), IPv4Network("10.1.0.0/16")
        for rows in ([(wide, "w"), (narrow, "n")], [(narrow, "n"), (wide, "w")]):
            t = PrefixTable(rows)
            assert t.match(IPv4Address("10.1.2.3")) == "n"
            assert t.match(IPv4Address("10.2.0.1")) == "w"
            assert t.match(IPv4Address("11.0.0.1")) is None

    def test_first_row_of_a_duplicated_prefix_wins_and_both_are_kept(self):
        t = PrefixTable()
        p = IPv4Network("10.1.0.0/24")
        t.insert(p, "first")
        t.insert(IPv4Network("10.0.0.0/8"), "wide")
        t.insert(p, "second")
        assert t.match(IPv4Address("10.1.0.9")) == "first"
        assert list(t) == ["first", "wide", "second"]

    def test_default_route_and_host_route(self):
        t = PrefixTable(
            [(IPv4Network("0.0.0.0/0"), "default"), (IPv4Network("10.1.0.7/32"), "host")]
        )
        assert t.match(IPv4Address("10.1.0.7")) == "host"
        assert t.match(IPv4Address("10.1.0.8")) == "default"
        assert t.match(IPv4Address("255.255.255.255")) == "default"

    def test_empty_table_matches_nothing(self):
        t = PrefixTable()
        assert t.match(IPv4Address("10.0.0.1")) is None
        assert list(t) == []

    @given(_rows_and_addresses())
    def test_match_is_the_linear_scan(self, case):
        rows, addrs = case
        built = PrefixTable(rows)
        grown, filed = PrefixTable(), PrefixTable()
        for prefix, row in rows:
            grown.insert(prefix, row)
            filed.file(prefix.network_int, prefix.prefixlen, row)
        for table in (built, grown, filed):
            # the same row *object*: first of duplicates, None on no cover
            for a in addrs:
                assert table.match(a) is _linear_match(rows, a)
            kept = list(table)
            assert len(kept) == len(rows)
            assert all(k is row for k, (_, row) in zip(kept, rows))


class TestMacAddress:
    def test_str_roundtrip(self):
        m = MacAddress("02:00:5e:00:00:01")
        assert str(m) == "02:00:5e:00:00:01"
        assert MacAddress(str(m)) == m

    def test_allocator_unique(self):
        alloc = MacAllocator()
        macs = {alloc.allocate() for _ in range(1000)}
        assert len(macs) == 1000

    def test_ordering_and_hash(self):
        a, b = MacAddress(1), MacAddress(2)
        assert a < b
        assert len({a, MacAddress(1)}) == 1

    def test_bad_values(self):
        with pytest.raises(ValueError):
            MacAddress(-1)
        with pytest.raises(ValueError):
            MacAddress("00:11:22:33:44")
        with pytest.raises(TypeError):
            MacAddress(3.14)


# -- strict text: what int() takes and an address does not spell ----------

_DOTTED_RE = re.compile(r"[0-9]{1,3}(?:\.[0-9]{1,3}){3}")


class TestStrictText:
    @pytest.mark.parametrize(
        "bad",
        [
            "10.0.0.1_0",  # int("1_0") == 10: read as 10.0.0.10
            " 10.0.0.1",
            "10.0.0.1 ",
            "10.0.0.1\n",
            "10.0.0.+1",
            "10.0.0.-0",
            "10.0.0.١",  # ARABIC-INDIC DIGIT ONE
            "10.0.0.０",  # FULLWIDTH DIGIT ZERO
            "10.0.0.0001",
            "10.0.0.",
            "",
        ],
    )
    def test_ipv4_address_refuses(self, bad):
        with pytest.raises(ValueError):
            IPv4Address(bad)

    @pytest.mark.parametrize(
        "bad",
        ["10.0.0.0/0_8", "10.0.0.0/+8", "10.0.0.0/ 8", "10.0.0.0/8 ", "10.0.0.0/", "10.0.0.0/８"],
    )
    def test_ipv4_network_refuses(self, bad):
        with pytest.raises(ValueError):
            IPv4Network(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "-1:00:00:00:00:00",  # was a negative value
            "100:00:00:00:00:00",  # was a value over 48 bits
            "0x1:00:00:00:00:00",
            "1_0:00:00:00:00:00",
            " 1:00:00:00:00:00",
            ":00:00:00:00:00",
            "g0:00:00:00:00:00",
        ],
    )
    def test_mac_refuses(self, bad):
        with pytest.raises(ValueError):
            MacAddress(bad)

    def test_documented_spellings_still_parse(self):
        assert IPv4Address("010.001.000.009") == IPv4Address("10.1.0.9")
        assert str(IPv4Address("010.001.000.009")) == "10.1.0.9"
        assert IPv4Network("10.0.0.0/008") == IPv4Network("10.0.0.0/8")
        assert MacAddress("2:0:5E:0:0:A1") == MacAddress("02:00:5e:00:00:a1")

    @given(st.text(alphabet="0123456789.+-_ x\n١", max_size=18))
    def test_ipv4_text_accepted_exactly_when_it_spells_an_address(self, text):
        """The oracle is the grammar: four dot-separated runs of 1-3
        ASCII digits, each at most 255."""
        spells = _DOTTED_RE.fullmatch(text) is not None and all(
            int(p) <= 255 for p in text.split(".")
        )
        try:
            value = IPv4Address(text).value
        except ValueError:
            assert not spells
        else:
            assert spells
            assert value == int.from_bytes(bytes(int(p) for p in text.split(".")), "big")


class TestFormattedFromTheInt:
    """The text and octets now come straight from the int; the oracle is
    the formula they were computed by before, kept verbatim."""

    @given(_U32)
    def test_ipv4(self, v):
        octets = ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)
        assert IPv4Address(v).octets() == octets
        assert str(IPv4Address(v)) == ".".join(str(o) for o in octets)
        assert ipv4_octets(v) == octets and ipv4_text(v) == str(IPv4Address(v))

    @given(st.integers(0, 2**48 - 1))
    def test_mac(self, v):
        octets = tuple((v >> (8 * i)) & 0xFF for i in range(5, -1, -1))
        mac = MacAddress(v)
        assert mac.octets() == octets
        assert str(mac) == ":".join(f"{o:02x}" for o in octets)
        assert MacAddress(str(mac)) == mac
        assert hash(mac) == hash(("mac", v))

    @given(_U32, st.integers(0, 32))
    def test_network_ints(self, v, plen):
        n = IPv4Network(IPv4Address(v & IPv4Network._mask_for(plen)), plen)
        assert n.network_int == v & IPv4Network._mask_for(plen)
        assert n.netmask_int == IPv4Network._mask_for(plen)
        assert str(n) == f"{IPv4Address(n.network_int)}/{plen}"
        assert netmask_prefixlen(n.network_int, n.netmask_int) == plen
