// Umbrella header for the serving subsystem: versioned snapshot storage,
// batched thread-safe lookup, async request coalescing, instability-gated
// promotion, and runtime stats. See each header for the design rationale.
// (The TCP front-end lives in net/ — include net/server.hpp or
// net/client.hpp for the out-of-process surface.)
#pragma once

#include "serve/batcher.hpp"
#include "serve/canary.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/embedding_store.hpp"
#include "serve/lookup_service.hpp"
