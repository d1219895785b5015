"""Shared fixtures for the test suite."""

import json
import time
from http.client import HTTPConnection

import pytest

from repro.core.tasks import Nl2SvaHumanTask


@pytest.fixture
def wait_inflight():
    """``wait(host, port, count)``: block until the server's
    ``/metrics`` shows *count* requests inside handlers (the kernel's
    ``http.inflight`` gauge) -- state, not ``time.sleep``, decides when
    a storm test signals.  Fails the test loudly on timeout."""

    def wait(host, port, count, timeout=30):
        deadline = time.monotonic() + timeout
        while True:
            conn = HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", "/metrics")
                metrics = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            inflight = metrics["http"]["inflight"]
            if inflight >= count:
                return
            if time.monotonic() > deadline:
                pytest.fail(f"only {inflight} of {count} requests went "
                            f"in-flight within {timeout}s")
            time.sleep(0.01)

    return wait


@pytest.fixture(scope="session")
def human_task():
    return Nl2SvaHumanTask()


@pytest.fixture(scope="session")
def machine_widths():
    from repro.datasets.nl2sva_machine.generator import SIGNAL_WIDTHS
    return dict(SIGNAL_WIDTHS)


@pytest.fixture(scope="session")
def fsm_design_source():
    return r"""
`define WIDTH 8
module fsm(clk, reset_, in_A, in_B, in_C, in_D, fsm_out);
parameter WIDTH = `WIDTH, FSM_WIDTH = 2;
parameter S0 = 2'b00, S1 = 2'b01, S2 = 2'b10, S3 = 2'b11;
input clk, reset_;
input [WIDTH-1:0] in_A, in_B, in_C, in_D;
output reg [FSM_WIDTH-1:0] fsm_out;
reg [FSM_WIDTH-1:0] state, next_state;
always_ff @(posedge clk or negedge reset_) begin
    if (!reset_) state <= S0;
    else state <= next_state;
end
always_comb begin
    case(state)
        S0: next_state = S2;
        S1: next_state = S3;
        S2: if ((in_D || in_C) == 'd0) next_state = S0;
            else if ((in_C <= 'd1) != in_A) next_state = S1;
            else next_state = S3;
        S3: next_state = S1;
    endcase
end
always_comb fsm_out = state;
endmodule
"""
