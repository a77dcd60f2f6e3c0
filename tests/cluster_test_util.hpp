// Helpers shared by the cluster test binaries: random embeddings, row
// slices, bit-identity of lookup results, and the snapshot config whose
// OOV table is off (OOV synthesis is per-process by design).
#pragma once

#include <cstdint>
#include <cstring>

#include "embed/embedding.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::cluster {

inline embed::Embedding random_embedding(std::uint64_t seed,
                                         std::size_t vocab,
                                         std::size_t dim) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

inline embed::Embedding slice(const embed::Embedding& full,
                              std::size_t begin, std::size_t end) {
  embed::Embedding e(end - begin, full.dim);
  std::memcpy(e.data.data(), full.data.data() + begin * full.dim,
              (end - begin) * full.dim * sizeof(float));
  return e;
}

inline bool identical(const serve::LookupResult& a,
                      const serve::LookupResult& b) {
  return a.version == b.version && a.dim == b.dim && a.oov == b.oov &&
         a.vectors.size() == b.vectors.size() &&
         (a.vectors.empty() ||
          std::memcmp(a.vectors.data(), b.vectors.data(),
                      a.vectors.size() * sizeof(float)) == 0);
}

inline serve::SnapshotConfig plain_snap() {
  serve::SnapshotConfig snap;
  snap.build_oov_table = false;  // OOV synthesis is per-process by design
  return snap;
}

}  // namespace anchor::cluster
