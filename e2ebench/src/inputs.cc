#include "inputs.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "dump/alignment.h"
#include "serve/pattern_store.h"

namespace wcbench {

using namespace wiclean;

std::string JoinPath(const std::string& dir, const char* name) {
  return dir + "/" + name;
}

Result<Alignment> LoadAlignmentDir(const std::string& dir) {
  Alignment out;
  std::ifstream taxonomy_file(JoinPath(dir, kTaxonomyFile));
  if (!taxonomy_file) {
    return Status::NotFound("cannot open " + JoinPath(dir, kTaxonomyFile));
  }
  WICLEAN_ASSIGN_OR_RETURN(out.taxonomy, LoadTaxonomy(&taxonomy_file));
  std::ifstream alignment_file(JoinPath(dir, kAlignmentFile));
  if (!alignment_file) {
    return Status::NotFound("cannot open " + JoinPath(dir, kAlignmentFile));
  }
  WICLEAN_ASSIGN_OR_RETURN(out.registry,
                           LoadAlignment(&alignment_file, out.taxonomy.get()));
  return out;
}

Status WriteAlignmentDir(const SynthWorld& world, const std::string& dir) {
  std::ofstream taxonomy_file(JoinPath(dir, kTaxonomyFile));
  WICLEAN_RETURN_IF_ERROR(WriteTaxonomy(*world.taxonomy, &taxonomy_file));
  std::ofstream alignment_file(JoinPath(dir, kAlignmentFile));
  return WriteAlignment(*world.registry, &alignment_file);
}

Status WriteExperts(const std::vector<ExpertPattern>& experts,
                    const TypeTaxonomy& taxonomy, const std::string& dir) {
  PatternSnapshot snapshot;
  snapshot.provenance.tool = "e2ebench expert list";
  std::ofstream index(JoinPath(dir, kExpertsIndexFile));
  for (const ExpertPattern& e : experts) {
    StoredPattern stored;
    stored.pattern = e.pattern;
    stored.window = TimeWindow{0, 1};  // unused; the format rejects empty ones
    snapshot.patterns.push_back(std::move(stored));
    index << e.name << '\t' << e.domain << '\t' << (e.windowed ? 1 : 0)
          << '\t' << e.window_index << '\n';
  }
  index.flush();
  if (!index) return Status::Internal("cannot write expert index");
  return SaveSnapshotFile(snapshot, taxonomy, JoinPath(dir, kExpertsFile));
}

Result<std::vector<ExpertPattern>> LoadExperts(const std::string& dir,
                                               const TypeTaxonomy& taxonomy) {
  WICLEAN_ASSIGN_OR_RETURN(
      PatternSnapshot snapshot,
      LoadSnapshotFile(JoinPath(dir, kExpertsFile), taxonomy));
  std::ifstream index(JoinPath(dir, kExpertsIndexFile));
  std::vector<ExpertPattern> experts;
  std::string line;
  while (std::getline(index, line)) {
    if (experts.size() >= snapshot.patterns.size()) {
      return Status::Corruption("expert index longer than expert snapshot");
    }
    std::istringstream fields(line);
    ExpertPattern e;
    int windowed = 0;
    std::getline(fields, e.name, '\t');
    std::getline(fields, e.domain, '\t');
    fields >> windowed >> e.window_index;
    e.windowed = windowed != 0;
    e.pattern = snapshot.patterns[experts.size()].pattern;
    experts.push_back(std::move(e));
  }
  if (experts.size() != snapshot.patterns.size()) {
    return Status::Corruption("expert index and snapshot disagree");
  }
  return experts;
}

Status WriteMeta(const std::vector<std::pair<std::string, std::string>>& meta,
                 const std::string& dir) {
  std::ofstream out(JoinPath(dir, kMetaFile));
  for (const auto& [key, value] : meta) out << key << '\t' << value << '\n';
  out.flush();
  if (!out) return Status::Internal("cannot write " + JoinPath(dir, kMetaFile));
  return Status::OK();
}

std::map<std::string, std::string> ReadMeta(const std::string& dir) {
  std::map<std::string, std::string> meta;
  std::ifstream in(JoinPath(dir, kMetaFile));
  std::string line;
  while (std::getline(in, line)) {
    const size_t tab = line.find('\t');
    if (tab != std::string::npos) {
      meta[line.substr(0, tab)] = line.substr(tab + 1);
    }
  }
  return meta;
}

Feed BuildCanonicalFeed(const EntityRegistry& registry,
                        const RevisionStore& store) {
  Feed events;
  for (EntityId e = 0; e < static_cast<EntityId>(registry.size()); ++e) {
    for (const Action& a : store.LogOf(e)) {
      events.emplace_back(a, static_cast<uint64_t>(events.size()));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.time < b.first.time;
                   });
  return events;
}

std::string ReportFingerprint(const PartialUpdateReport& report) {
  std::vector<std::string> sigs;
  sigs.reserve(report.partials.size());
  for (const PartialRealization& pr : report.partials) {
    sigs.push_back(pr.Signature());
  }
  std::sort(sigs.begin(), sigs.end());
  std::string out = "full=" + std::to_string(report.full_count);
  for (const std::string& s : sigs) {
    out += '|';
    out += s;
  }
  return out;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<uint64_t>(in.tellg());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace wcbench
