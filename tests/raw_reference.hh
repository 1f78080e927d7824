/**
 * @file
 * The witness for the Raw event stepper (DESIGN D12): a RawMachine
 * whose run loop spins one cycle at a time, stepping every port and
 * every tile each cycle like the original interpreter, with no wake
 * skipping, no bulk stall credit and no tile-local batching. The
 * kernels take a RawMachine&, so they run on it unchanged; the
 * differential tests require it to agree with the production machine
 * bit for bit.
 */

#ifndef TRIARCH_TESTS_RAW_REFERENCE_HH
#define TRIARCH_TESTS_RAW_REFERENCE_HH

#include "raw/machine.hh"
#include "sim/logging.hh"

namespace triarch::raw
{

/** RawMachine with the cycle-at-a-time reference loop. */
class ReferenceRawMachine : public RawMachine
{
  public:
    using RawMachine::RawMachine;

  protected:
    Cycles loop() override
    {
        batching = false;
        Cycles now = 0;
        while (!allDone()) {
            stepAll(now);
            ++now;
            if (now > config().maxCycles) {
                triarch_fatal("Raw simulation exceeded ",
                              config().maxCycles,
                              " cycles — deadlock or runaway program");
            }
        }
        return now;
    }
};

} // namespace triarch::raw

#endif // TRIARCH_TESTS_RAW_REFERENCE_HH
