#ifndef PAYGO_PERSIST_MODEL_IO_H_
#define PAYGO_PERSIST_MODEL_IO_H_

/// \file model_io.h
/// \brief Persistence of built integration systems.
///
/// A pay-as-you-go system is built once and then serves queries for a long
/// time; re-running Algorithms 1-3 and the classifier setup on every
/// process start is wasted work (the thesis's DDH classifier took minutes
/// to construct). A snapshot stores the corpus, the probabilistic domain
/// model, and the classifier conditionals in one plain-text file;
/// restoring rebuilds the cheap derived state (mediation) and reuses the
/// expensive parts verbatim.
///
/// Snapshot format v2 additionally persists the frozen lexicon terms and
/// the per-schema feature bitsets (as sparse set-bit index lists). v1
/// re-derived both from the corpus, which is wrong once the corpus has
/// grown through AddSchema: added schemas were featurized against the
/// lexicon frozen at Build time (VectorizeExternalTerms), so a re-derived
/// lexicon has a different dimension — the restore fails its dim check —
/// or, worse, the same dimension with different bits. v2 restores the
/// feature space the system actually served with, making
/// serialize -> deserialize bitwise-exact even after incremental churn.
/// v1 snapshots still load (legacy rebuild path, valid for never-mutated
/// systems).
///
/// Structural sharing (IntegrationSystem::Clone) is invisible here by
/// construction: SaveSnapshot reads each component once through the
/// system's accessors, so a component shared by many live snapshots is
/// serialized exactly once, and LoadSnapshot materializes fresh shared
/// components the restored system owns outright.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "classify/naive_bayes.h"
#include "cluster/probabilistic_assignment.h"
#include "core/integration_system.h"
#include "util/status.h"

namespace paygo {

/// Serializes a domain model (clusters + membership probabilities).
std::string SerializeDomainModel(const DomainModel& model);

/// Parses a domain model serialized by SerializeDomainModel.
Result<DomainModel> ParseDomainModel(std::string_view text);

/// Serializes classifier conditionals (priors + per-feature q1 vectors).
std::string SerializeConditionals(ConditionalsView conditionals);

/// Parses conditionals serialized by SerializeConditionals.
Result<std::vector<DomainConditionals>> ParseConditionals(
    std::string_view text);

/// Serializes a full v2 system snapshot (corpus + lexicon + features +
/// model + conditionals) to a string. The system must have been built with
/// a classifier. This is the in-memory half of SaveSnapshot; the shard
/// replication channel ships the same bytes over the wire.
Result<std::string> SerializeSnapshot(const IntegrationSystem& system);

/// Restores a system from snapshot text (v1 or v2). \p options must carry
/// the same tokenizer/feature/mediator settings the system was built with
/// (they drive the derived state that is rebuilt); clustering and
/// classifier settings are not re-applied — the persisted model and
/// conditionals are used as-is.
Result<std::unique_ptr<IntegrationSystem>> ParseSnapshot(
    std::string_view text, SystemOptions options = {});

/// Writes a full system snapshot to \p path (SerializeSnapshot + file IO).
Status SaveSnapshot(const IntegrationSystem& system, const std::string& path);

/// Restores a system from the snapshot file at \p path (file IO +
/// ParseSnapshot).
Result<std::unique_ptr<IntegrationSystem>> LoadSnapshot(
    const std::string& path, SystemOptions options = {});

}  // namespace paygo

#endif  // PAYGO_PERSIST_MODEL_IO_H_
