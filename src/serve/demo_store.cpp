#include "serve/demo_store.hpp"

#include "util/rng.hpp"

namespace anchor::serve {

void add_demo_versions(EmbeddingStore& store, const DemoStoreConfig& config) {
  SnapshotConfig snap;
  snap.bits = config.bits;
  snap.pq_m = config.pq_m;
  snap.pq_bits = config.pq_bits;
  snap.num_shards = config.num_shards;
  snap.build_oov_table = config.build_oov_table;

  // One fp32 buffer holds each version's source in turn: a snapshot keeps
  // only its own encoding, so ingest peaks at the store plus this buffer.
  // Each version draws from its own generator, so the order the buffer is
  // rewritten in changes none of their values.
  embed::Embedding rows(config.vocab, config.dim);
  Rng rng(config.seed);
  for (auto& x : rows.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  store.add_version("v1", rows, snap);

  Rng refresh_rng(config.seed ^ 0x5bd1e995u);
  for (auto& x : rows.data) {
    x += static_cast<float>(refresh_rng.normal(0.0, config.refresh_noise));
  }
  snap.align_to_live = config.align_to_live;  // v1 has no incumbent anyway
  store.add_version("v2-good", rows, snap);

  // A different seed is a different latent space: nearest-neighbor
  // structure is unrelated to v1's, which is what the gate's k-NN measure
  // is built to catch.
  Rng bad_rng(config.seed * 2654435761u + 1);
  for (auto& x : rows.data) x = static_cast<float>(bad_rng.normal(0.0, 1.0));
  store.add_version("v3-bad", rows, snap);
}

}  // namespace anchor::serve
