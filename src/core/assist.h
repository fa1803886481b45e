#ifndef WICLEAN_CORE_ASSIST_H_
#define WICLEAN_CORE_ASSIST_H_

#include <optional>
#include <string>
#include <vector>

#include "core/partial.h"
#include "core/pattern.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"

namespace wiclean {

/// A pattern that recurs across the timeline (§5: "transfer windows occur
/// each summer with a similar edit pattern").
struct PeriodicPattern {
  Pattern pattern;
  std::vector<TimeWindow> occurrences;  // windows where it was mined, sorted
  Timestamp period = 0;                 // dominant gap between occurrences
};

/// Groups (pattern, window) discoveries by pattern identity (canonical code)
/// and reports the patterns mined in two or more windows whose
/// start-to-start gaps agree within `tolerance`, in order of first discovery;
/// each keeps its first discovery's spelling. Discoveries typically come from
/// running the window search on consecutive years of history.
std::vector<PeriodicPattern> FindPeriodicPatterns(
    const std::vector<std::pair<Pattern, TimeWindow>>& discoveries,
    Timestamp tolerance);

/// One concrete completion proposal shown to an editing user.
struct EditSuggestion {
  Pattern pattern;
  double pattern_frequency = 0;  // statistical metadata for the editor
  std::vector<std::optional<EntityId>> bindings;
  std::vector<size_t> missing_actions;  // indices into pattern.actions()
  std::vector<std::vector<EntityId>> examples;  // completed peers

  /// Renders the proposal, e.g.
  ///   "add link Club7 --squad--> Player3 (pattern seen for 83% of
  ///    soccer_player; e.g. Player5)".
  std::string Describe(const EntityRegistry& registry) const;
};

struct AssistOptions {
  PartialDetectorOptions detector;
  size_t max_suggestions = 10;
};

/// The §5 plug-in backend: given patterns known to apply in the current
/// window (e.g. periodic patterns projected forward), proposes completions
/// for the partial edits that involve the entity a user is editing.
class EditAssistant {
 public:
  /// `registry` and `store` must outlive the assistant.
  EditAssistant(const EntityRegistry* registry, const RevisionStore* store,
                AssistOptions options = {});

  /// Registers a pattern the assistant should watch for, with its mined
  /// frequency (shown to users as confidence metadata).
  void AddKnownPattern(Pattern pattern, double frequency);

  size_t num_known_patterns() const { return known_.size(); }

  /// Suggests completions for partial edits within `window` that involve
  /// `entity` (as any pattern variable). Ordered by pattern frequency.
  [[nodiscard]] Result<std::vector<EditSuggestion>> SuggestFor(
      EntityId entity, const TimeWindow& window) const;

 private:
  struct Known {
    Pattern pattern;
    double frequency;
  };

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  AssistOptions options_;
  std::vector<Known> known_;
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_ASSIST_H_
