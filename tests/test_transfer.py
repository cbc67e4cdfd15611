"""Tests for transfer bandwidth, buffers and DTM prediction."""

from __future__ import annotations

import pytest

from repro.bad.styles import ClockScheme
from repro.chips.chip import PinBudget
from repro.core.tasks import TaskKind, TransferTask
from repro.core.transfer import (
    buffer_bits,
    data_transfer_module,
    estimate_transfer,
    transfer_bandwidth_pins,
)
from repro.errors import InfeasibleError, PredictionError
from repro.library.presets import REGISTER


def _task(bits=128, chips=("chip1", "chip2")):
    return TransferTask(
        name="xfer:P1->P2", kind=TaskKind.TRANSFER, bits=bits,
        chips=chips, partition="P1",
    )


def _budget(data_pins):
    return PinBudget(
        total=data_pins + 4, power_ground=4, control=0, memory_dedicated=0
    )


class TestBandwidth:
    def test_minimum_across_chips(self):
        budgets = {"chip1": _budget(40), "chip2": _budget(20)}
        assert transfer_bandwidth_pins(_task(), budgets, {}) == 20

    def test_memory_load_subtracts(self):
        budgets = {"chip1": _budget(40), "chip2": _budget(40)}
        pins = transfer_bandwidth_pins(
            _task(), budgets, {"chip1": 25}
        )
        assert pins == 15

    def test_no_pins_is_infeasible(self):
        budgets = {"chip1": _budget(10), "chip2": _budget(10)}
        with pytest.raises(InfeasibleError):
            transfer_bandwidth_pins(_task(), budgets, {"chip1": 10})

    def test_missing_budget_raises(self):
        with pytest.raises(PredictionError):
            transfer_bandwidth_pins(_task(), {}, {})


class TestEstimate:
    def test_transfer_cycles_ceil(self):
        budgets = {"chip1": _budget(50), "chip2": _budget(50)}
        clocks = ClockScheme(300.0, transfer_multiplier=1)
        estimate = estimate_transfer(_task(bits=128), budgets, {}, clocks)
        assert estimate.pins == 50
        assert estimate.transfer_cycles == 3  # ceil(128/50)
        assert estimate.duration_main == 3

    def test_transfer_clock_multiplier(self):
        budgets = {"chip1": _budget(64), "chip2": _budget(64)}
        clocks = ClockScheme(300.0, transfer_multiplier=2)
        estimate = estimate_transfer(_task(bits=128), budgets, {}, clocks)
        assert estimate.transfer_cycles == 2
        assert estimate.duration_main == 4

    def test_fewer_pins_longer_transfer(self):
        clocks = ClockScheme(300.0)
        wide = estimate_transfer(
            _task(), {"chip1": _budget(60), "chip2": _budget(60)}, {},
            clocks,
        )
        narrow = estimate_transfer(
            _task(), {"chip1": _budget(12), "chip2": _budget(12)}, {},
            clocks,
        )
        assert narrow.duration_main > wide.duration_main


class TestBufferFormula:
    def test_paper_formula(self):
        # B = D * (ceil(W/l) + X/l): D=64, W=25, l=10, X=4
        # -> 64 * (3 + 0.4) = 217.6 -> 218
        assert buffer_bits(64, 25, 4, 10) == 218

    def test_no_wait_no_transfer(self):
        assert buffer_bits(64, 0, 0, 10) == 0

    def test_transfer_only_fraction(self):
        # Stair-like storage during the transfer: D * X/l.
        assert buffer_bits(100, 0, 5, 10) == 50

    def test_wait_longer_than_interval(self):
        # W=25 with l=10 -> three in-flight iterations buffered.
        assert buffer_bits(16, 25, 0, 10) == 48

    def test_rejects_bad_interval(self):
        with pytest.raises(PredictionError):
            buffer_bits(16, 1, 1, 0)

    def test_rejects_negative_terms(self):
        with pytest.raises(PredictionError):
            buffer_bits(-1, 1, 1, 10)


class TestDataTransferModule:
    def _estimate(self, bits=128, pins=32):
        budgets = {"chip1": _budget(pins), "chip2": _budget(pins)}
        clocks = ClockScheme(300.0)
        return estimate_transfer(_task(bits=bits), budgets, {}, clocks), clocks

    def test_module_area_includes_buffer_and_pla(self):
        estimate, clocks = self._estimate()
        module = data_transfer_module(
            _task(), "chip1", "output", estimate, wait_main=5,
            ii_main=20, clocks=clocks, register=REGISTER,
        )
        assert module.buffer_bits > 0
        assert module.area_mil2.ml > module.controller.area_mil2.ml

    def test_always_active_flag(self):
        estimate, clocks = self._estimate()
        lazy = data_transfer_module(
            _task(), "chip1", "output", estimate, wait_main=5,
            ii_main=20, clocks=clocks, register=REGISTER,
        )
        busy = data_transfer_module(
            _task(), "chip1", "output", estimate, wait_main=25,
            ii_main=20, clocks=clocks, register=REGISTER,
        )
        assert not lazy.always_active
        assert busy.always_active

    def test_longer_wait_bigger_buffer(self):
        estimate, clocks = self._estimate()
        short = data_transfer_module(
            _task(), "chip1", "output", estimate, 2, 20, clocks, REGISTER
        )
        long = data_transfer_module(
            _task(), "chip1", "output", estimate, 45, 20, clocks, REGISTER
        )
        assert long.buffer_bits > short.buffer_bits

    @pytest.mark.parametrize("mode", ["output", "input"])
    @pytest.mark.parametrize("transfer_multiplier", [1, 3])
    def test_controller_never_speeds_up_as_the_wait_grows(
        self, mode, transfer_multiplier
    ):
        # The walk's delay floor sizes each controller at wait (or hold)
        # 0; no longer wait may give a faster one.
        clocks = ClockScheme(300.0, transfer_multiplier=transfer_multiplier)
        budgets = {"chip1": _budget(32), "chip2": _budget(32)}
        estimate = estimate_transfer(_task(), budgets, {}, clocks)
        ii_main = 20
        delays = [
            data_transfer_module(
                _task(), "chip2", mode, estimate, wait, ii_main, clocks,
                REGISTER,
            ).control_delay_ns
            for wait in range(3 * ii_main + 1)
        ]
        assert delays == sorted(delays)
        assert delays[-1] > delays[0]

    def test_invalid_mode_rejected(self):
        estimate, clocks = self._estimate()
        with pytest.raises(PredictionError):
            data_transfer_module(
                _task(), "chip1", "both", estimate, 2, 20, clocks,
                REGISTER,
            )
