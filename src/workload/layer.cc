#include "layer.hh"

#include "util/logging.hh"

namespace antsim {

const char *
phaseName(TrainingPhase phase)
{
    switch (phase) {
      case TrainingPhase::Forward: return "W*A";
      case TrainingPhase::Backward: return "W*G_A";
      case TrainingPhase::Update: return "G_A*A";
    }
    ANT_PANIC("unknown training phase");
}

} // namespace antsim
