#include "lane_trace.hpp"

#include "common/logging.hpp"

namespace mimoarch {

LaneTraceRecorder::LaneTraceRecorder(size_t expected_steps)
{
    trace_.ips.reserve(expected_steps);
    trace_.power.reserve(expected_steps);
    trace_.trueIps.reserve(expected_steps);
    trace_.truePower.reserve(expected_steps);
    trace_.refIps.reserve(expected_steps);
    trace_.refPower.reserve(expected_steps);
    trace_.tier.reserve(expected_steps);
}

void
LaneTraceRecorder::record(const Matrix &y, const Matrix &u,
                          const Matrix &ref, unsigned tier)
{
    if (y.rows() < 2 || ref.rows() < 2 || u.rows() < 1)
        fatal("LaneTraceRecorder: need >= 2 outputs and >= 1 command");
    trace_.ips.push_back(y[0]);
    trace_.power.push_back(y[1]);
    trace_.trueIps.push_back(u[0]);
    trace_.truePower.push_back(u.rows() > 1 ? u[1] : 0.0);
    trace_.refIps.push_back(ref[0]);
    trace_.refPower.push_back(ref[1]);
    trace_.tier.push_back(tier);
}

void
LaneTraceRecorder::finish(const ControllerHealth &health)
{
    trace_.health = health;
}

} // namespace mimoarch
