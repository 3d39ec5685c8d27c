#include "hunter/model_io.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/text.h"

namespace hunter::core {

namespace {

constexpr char kMagic[] = "HUNTER_MODEL_V1";

void WriteVector(std::ostream& os, const char* tag,
                 const std::vector<double>& values) {
  os << tag << " " << values.size();
  for (double v : values) os << " " << v;
  os << "\n";
}

// The count comes from the file, so it sizes nothing: values are appended
// as they are read, and a count larger than the stream fails at its end.
bool ReadVector(std::istream& is, const std::string& expected_tag,
                std::vector<double>* values) {
  std::string tag;
  size_t count = 0;
  if (!(is >> tag >> count) || tag != expected_tag) return false;
  values->clear();
  double v = 0.0;
  while (values->size() < count && is >> v) values->push_back(v);
  return values->size() == count;
}

}  // namespace

bool SaveModel(const HunterModel& model, std::ostream& os) {
  // Model files must be byte-stable across hosts: pin the "C" locale for
  // the duration of the write (a caller-imbued locale would otherwise
  // render decimal commas) alongside round-trip precision.
  common::ScopedClassicLocale pin(os);
  os << kMagic << "\n";
  os << std::setprecision(17);
  os << "state_dim " << model.space.state_dim << "\n";
  os << "use_pca " << (model.space.use_pca ? 1 : 0) << "\n";
  os << "signature " << (model.signature.empty() ? "-" : model.signature)
     << "\n";
  std::vector<double> knobs(model.space.selected_knobs.begin(),
                            model.space.selected_knobs.end());
  WriteVector(os, "selected_knobs", knobs);
  WriteVector(os, "knob_importance", model.space.knob_importance);
  WriteVector(os, "pca_state",
              model.space.use_pca ? model.space.pca.SaveState()
                                  : std::vector<double>{});
  WriteVector(os, "ddpg_parameters", model.ddpg_parameters);
  WriteVector(os, "base_config", model.base_config);
  return static_cast<bool>(os);
}

bool SaveModelToFile(const HunterModel& model, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  return SaveModel(model, os);
}

bool LoadModel(std::istream& is, HunterModel* model) {
  common::ScopedClassicLocale pin(is);  // parse "1.5" under any host locale
  std::string magic;
  if (!(is >> magic) || magic != kMagic) return false;
  std::string tag;
  size_t state_dim = 0;
  int use_pca = 0;
  std::string signature;
  if (!(is >> tag >> state_dim) || tag != "state_dim") return false;
  if (!(is >> tag >> use_pca) || tag != "use_pca") return false;
  if (!(is >> tag >> signature) || tag != "signature") return false;

  std::vector<double> knobs, importance, pca_state, params, base;
  if (!ReadVector(is, "selected_knobs", &knobs)) return false;
  if (!ReadVector(is, "knob_importance", &importance)) return false;
  if (!ReadVector(is, "pca_state", &pca_state)) return false;
  if (!ReadVector(is, "ddpg_parameters", &params)) return false;
  if (!ReadVector(is, "base_config", &base)) return false;
  for (double knob : knobs) {
    // Knob indices are catalog positions, and knob_importance spans the
    // catalog. Negated so NaN fails too.
    if (!(knob >= 0.0 && knob < static_cast<double>(importance.size()) &&
          knob == std::floor(knob))) {
      return false;
    }
  }

  model->space = OptimizedSpace();
  model->space.state_dim = state_dim;
  model->space.use_pca = use_pca != 0;
  model->space.selected_knobs.assign(knobs.begin(), knobs.end());
  model->space.knob_importance = std::move(importance);
  if (model->space.use_pca && !model->space.pca.LoadState(pca_state)) {
    return false;
  }
  model->ddpg_parameters = std::move(params);
  model->base_config = std::move(base);
  model->signature = signature == "-" ? std::string() : signature;
  return true;
}

bool LoadModelFromFile(const std::string& path, HunterModel* model) {
  std::ifstream is(path);
  if (!is) return false;
  return LoadModel(is, model);
}

}  // namespace hunter::core
