"""Unit-conversion and formatting tests."""

import math

from repro import units


class TestConversions:
    def test_mbps(self):
        assert units.mbps(100) == 1e8

    def test_gbps(self):
        assert units.gbps(3.2) == 3.2e9

    def test_binary_prefixes(self):
        assert units.GIB == 2**30
        assert units.KIB * units.KIB == units.MIB


class TestFormatting:
    def test_si_format_giga(self):
        assert units.si_format(1.234e9, "FLOPS") == "1.23 GFLOPS"

    def test_si_format_below_kilo(self):
        assert units.si_format(999, "W") == "999.00 W"

    def test_si_format_negative(self):
        assert units.si_format(-2e6, "B/s") == "-2.00 MB/s"

    def test_si_format_non_finite(self):
        assert "inf" in units.si_format(math.inf, "W")

    def test_format_flops(self):
        assert units.format_flops(901e9) == "901.00 GFLOPS"

    def test_format_power_kilowatts(self):
        assert units.format_power(1520) == "1.52 kW"

    def test_format_energy(self):
        assert units.format_energy(3.6e6) == "3.60 MJ"

    def test_format_time_seconds(self):
        assert units.format_time(45.0) == "45.0 s"

    def test_format_time_minutes(self):
        assert units.format_time(600) == "10.0 min"

    def test_format_time_hours(self):
        assert units.format_time(7200) == "2.0 h"

    def test_format_bytes_gib(self):
        assert units.format_bytes(32 * units.GIB) == "32.0 GiB"

    def test_format_bytes_small(self):
        assert units.format_bytes(512) == "512 B"

    def test_precision_parameter(self):
        assert units.si_format(1.23456e9, "FLOPS", precision=4) == "1.2346 GFLOPS"
