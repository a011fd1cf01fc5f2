#ifndef MMDB_SIM_CPU_H_
#define MMDB_SIM_CPU_H_

#include <cstdint>
#include <string>

#include "sim/clock.h"

namespace mmdb::sim {

/// Instruction-cost-accounting model of a processor.
///
/// The paper evaluates its design purely in instructions per operation and
/// MIPS (Table 2: a 6-MIPS main CPU and a 1-MIPS dedicated recovery CPU,
/// one generic recovery-CPU instruction ~= 1 microsecond). Components call
/// `Execute(n)` with the Table 2 instruction counts; the CPU converts that
/// to virtual time on its own timeline and accumulates totals so benches
/// can report both modeled rates and instruction budgets.
///
/// Each CPU has a private timeline (`busy_until`), so work on parallel
/// processors does not serialize onto one clock: each executor worker
/// runs on its own and joins the shared SimClock only at explicit
/// synchronization points. The database's main CPU keeps its time on
/// the SimClock itself, so its model only counts instructions.
class CpuModel {
 public:
  CpuModel(std::string name, double mips)
      : name_(std::move(name)), ns_per_instruction_(1000.0 / mips) {}

  const std::string& name() const { return name_; }

  /// Account for `instructions` generic instructions of work.
  void Execute(double instructions) {
    total_instructions_ += instructions;
    busy_until_ns_ += instructions * ns_per_instruction_;
  }

  /// Account for extra latency that occupies this CPU (e.g. a synchronous
  /// stable-memory access penalty).
  void Stall(double ns) { busy_until_ns_ += ns; }

  /// Account instructions whose time is kept on another timeline (a
  /// worker's, a recovery lane's, or the global clock): the work is
  /// added to the instruction total without advancing this CPU's
  /// private busy-until.
  void AccountInstructions(double instructions) {
    total_instructions_ += instructions;
  }

  /// This CPU's private timeline, in virtual ns of accumulated work.
  uint64_t busy_until_ns() const {
    return static_cast<uint64_t>(busy_until_ns_);
  }

  double total_instructions() const { return total_instructions_; }
  double ns_per_instruction() const { return ns_per_instruction_; }
  double mips() const { return 1000.0 / ns_per_instruction_; }

  /// Synchronize this CPU's timeline forward to `t_ns` (idle until then).
  void IdleUntil(uint64_t t_ns) {
    if (static_cast<double>(t_ns) > busy_until_ns_) {
      busy_until_ns_ = static_cast<double>(t_ns);
    }
  }

  void Reset() {
    busy_until_ns_ = 0;
    total_instructions_ = 0;
  }

 private:
  std::string name_;
  double ns_per_instruction_;
  double busy_until_ns_ = 0;
  double total_instructions_ = 0;
};

}  // namespace mmdb::sim

#endif  // MMDB_SIM_CPU_H_
