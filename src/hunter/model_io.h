// Persistence for HUNTER models (§4 model reuse across sessions).
//
// A HunterModel (search space + DDPG parameters + incumbent configuration)
// is written as a line-oriented text format so models trained in one
// process can warm-start tuning in another — the cross-session counterpart
// of the in-memory ModelRegistry. PCA state is reconstructed by re-fitting
// on the stored (compact) statistics-free projection: we persist the full
// transformation (means, scales, components) explicitly.

#ifndef HUNTER_HUNTER_MODEL_IO_H_
#define HUNTER_HUNTER_MODEL_IO_H_

#include <iosfwd>
#include <string>

#include "hunter/hunter.h"

namespace hunter::core {

// Serializes `model` to a stream / file. Returns false on I/O failure.
bool SaveModel(const HunterModel& model, std::ostream& os);
bool SaveModelToFile(const HunterModel& model, const std::string& path);

// Deserializes a model; returns false on parse failure or on a selected
// knob that is not an index into knob_importance (leaving `model`
// unspecified).
bool LoadModel(std::istream& is, HunterModel* model);
bool LoadModelFromFile(const std::string& path, HunterModel* model);

}  // namespace hunter::core

#endif  // HUNTER_HUNTER_MODEL_IO_H_
