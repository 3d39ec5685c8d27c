// FNV-1a over the bit patterns of doubles, for golden-digest tests: a
// one-ulp change to any mixed value changes the digest. The ml tests pin
// outputs recorded from reference paths that no longer exist this way, with
// the digests as inline constants.

#ifndef HUNTER_TESTS_ML_BIT_DIGEST_H_
#define HUNTER_TESTS_ML_BIT_DIGEST_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "linalg/matrix.h"

namespace hunter::ml {

class BitDigest {
 public:
  void Mix(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Mix(const std::vector<double>& values) {
    for (const double value : values) Mix(value);
  }
  // Row-major, so a matrix mixes like its rows in order.
  void Mix(const linalg::Matrix& matrix) {
    const double* data = matrix.Data();
    for (size_t i = 0; i < matrix.rows() * matrix.cols(); ++i) Mix(data[i]);
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace hunter::ml

#endif  // HUNTER_TESTS_ML_BIT_DIGEST_H_
