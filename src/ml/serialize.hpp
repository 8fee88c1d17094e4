// Versioned, checksummed binary serialization for trained ensembles.
//
// A saved model is a binio artifact envelope (magic + format version +
// payload + CRC32 trailer) whose payload stores every tree node verbatim:
// feature index, threshold, child indices, and the backfitted pos/neg
// counts, with doubles written as IEEE-754 bit patterns. Loading
// therefore rebuilds a BaggingClassifier whose predict_proba is
// bit-identical to the model that was saved — the property the
// checkpoint/resume machinery (common/checkpoint.hpp) relies on to make
// resumed attack runs reproduce uninterrupted ones exactly.
//
// load_bagging validates structure, not just the checksum: every non-leaf
// node's two children must be in range and come after it, so a
// corrupt-but-CRC-valid artifact (e.g. written by a future buggy writer)
// is rejected with kDataLoss instead of crashing or hanging the walker.
#pragma once

#include <string>

#include "common/status.hpp"
#include "ml/bagging.hpp"

namespace repro::ml {

/// Artifact identity for saved BaggingClassifier models ("MLBG").
inline constexpr std::uint32_t kBaggingMagic = 0x4D4C4247u;
inline constexpr std::uint32_t kBaggingVersion = 1;

/// Serializes the ensemble into an artifact envelope (magic, version,
/// CRC32) ready for CheckpointManager::write or atomic_write_file.
std::string save_bagging(const BaggingClassifier& clf);

/// Parses an artifact produced by save_bagging. Returns kDataLoss on
/// checksum/version/structure violations.
common::StatusOr<BaggingClassifier> load_bagging(const std::string& raw);

}  // namespace repro::ml
