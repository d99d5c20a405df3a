#include "anahy/policy.hpp"
#include "anahy/policy_central.hpp"
#include "anahy/policy_steal.hpp"

namespace anahy {

std::unique_ptr<SchedulingPolicy> make_policy(PolicyKind kind, int num_vps,
                                              observe::Telemetry& telemetry) {
  switch (kind) {
    case PolicyKind::kFifo:
    case PolicyKind::kLifo:
      return std::make_unique<CentralQueuePolicy>(kind);
    case PolicyKind::kWorkStealing:
      return std::make_unique<WorkStealingPolicy>(num_vps, telemetry);
  }
  return nullptr;
}

}  // namespace anahy
