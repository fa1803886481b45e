#ifndef WCBENCH_INPUTS_H_
#define WCBENCH_INPUTS_H_

// The generated input directory, shared by the generator (which writes it)
// and the workloads (which only read it), plus small helpers both use.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/partial.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"
#include "synth/synthesizer.h"
#include "taxonomy/taxonomy.h"

namespace wcbench {

/// File names inside a generated input directory.
inline constexpr const char* kTaxonomyFile = "taxonomy.tsv";
inline constexpr const char* kAlignmentFile = "alignment.tsv";
inline constexpr const char* kDumpFile = "dump.xml";
inline constexpr const char* kActionLogFile = "actions.wcal";
inline constexpr const char* kExpertsFile = "experts.wcps";
inline constexpr const char* kExpertsIndexFile = "experts.tsv";
inline constexpr const char* kSnapshotAFile = "snapshot_a.wcps";
inline constexpr const char* kSnapshotBFile = "snapshot_b.wcps";
inline constexpr const char* kMetaFile = "meta.tsv";
/// Written last by the generator; a directory without it is incomplete.
inline constexpr const char* kDoneFile = "DONE";

/// taxonomy.tsv + alignment.tsv, loaded.
struct Alignment {
  std::unique_ptr<wiclean::TypeTaxonomy> taxonomy;
  std::unique_ptr<wiclean::EntityRegistry> registry;
};

[[nodiscard]] wiclean::Result<Alignment> LoadAlignmentDir(
    const std::string& dir);

/// Writes taxonomy.tsv and alignment.tsv of `world` into `dir`.
[[nodiscard]] wiclean::Status WriteAlignmentDir(
    const wiclean::SynthWorld& world, const std::string& dir);

/// The expert pattern list of §6.3, persisted as a WCPS snapshot (patterns
/// stored by taxonomy name) plus a name/windowed index in the same order.
[[nodiscard]] wiclean::Status WriteExperts(
    const std::vector<wiclean::ExpertPattern>& experts,
    const wiclean::TypeTaxonomy& taxonomy, const std::string& dir);
[[nodiscard]] wiclean::Result<std::vector<wiclean::ExpertPattern>> LoadExperts(
    const std::string& dir, const wiclean::TypeTaxonomy& taxonomy);

/// key<TAB>value lines describing the generated corpus.
[[nodiscard]] wiclean::Status WriteMeta(
    const std::vector<std::pair<std::string, std::string>>& meta,
    const std::string& dir);
std::map<std::string, std::string> ReadMeta(const std::string& dir);

/// The revision log as one event stream, as `wiclean serve` feeds it: all
/// per-entity logs concatenated in entity-id order and stamped with that
/// rank, then stably sorted by time. The rank is the canonical tie-break
/// sequence the batch store uses.
using Feed = std::vector<std::pair<wiclean::Action, uint64_t>>;
Feed BuildCanonicalFeed(const wiclean::EntityRegistry& registry,
                        const wiclean::RevisionStore& store);

/// Order-normalized fingerprint of one pattern's detection result.
std::string ReportFingerprint(const wiclean::PartialUpdateReport& report);

/// Size of a file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

std::string JoinPath(const std::string& dir, const char* name);

/// Process high-water resident set size in MB.
double PeakRssMb();

}  // namespace wcbench

#endif  // WCBENCH_INPUTS_H_
