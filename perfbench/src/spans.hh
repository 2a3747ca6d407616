/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call across a layer boundary: name, start, end, the
 * span that caused it, and the run it belongs to. Hot boundaries fire
 * tens of millions of times per run, so spans with the same name under
 * the same parent span of one run are folded into one node that keeps
 * the call count, the summed duration, the summed duration of its
 * children, and the first start and last end. Spans that fire once per
 * run (the run itself and its phases) are therefore kept exactly.
 * Self time is a node's duration minus its children's. Nothing is
 * written until the benchmark ends.
 *
 * Single-threaded: the traced run executes one System at a time.
 */

#ifndef TLSIM_PERFBENCH_SPANS_HH
#define TLSIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time [ns]. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Every span of one name under one parent node of one run. */
struct SpanNode
{
    SpanNode(const char *site, SpanNode *up) : name(site), parent(up) {}

    /** Site name; a string literal (nodes keep the pointer). */
    const char *name;
    SpanNode *parent;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t childNs = 0;
    std::uint64_t firstStartNs = 0;
    std::uint64_t lastEndNs = 0;
    std::vector<std::unique_ptr<SpanNode>> children;

    SpanNode *
    child(const char *site)
    {
        for (auto &c : children) {
            if (c->name == site)
                return c.get();
        }
        children.push_back(std::make_unique<SpanNode>(site, this));
        return children.back().get();
    }
};

/** The span trees of every traced run, in run order. */
class SpanRecorder
{
  public:
    /** Open run @p run_id's root span. */
    void
    beginRun(std::size_t run_id)
    {
        runs.push_back({run_id, std::make_unique<SpanNode>("run",
                                                           nullptr)});
        stack.clear();
        stack.push_back({runs.back().root.get(), nowNs()});
    }

    /**
     * Close the current run's root span. Spans still open are counted
     * (a run should leave none) and dropped.
     */
    void
    endRun()
    {
        runs.back().unclosed = stack.size() - 1;
        stack.resize(1);
        exit();
    }

    void
    enter(const char *site)
    {
        stack.push_back({stack.back().node->child(site), nowNs()});
    }

    void
    exit()
    {
        std::uint64_t end = nowNs();
        Frame frame = stack.back();
        stack.pop_back();
        std::uint64_t dur = end - frame.startNs;
        SpanNode &node = *frame.node;
        if (node.count++ == 0)
            node.firstStartNs = frame.startNs;
        node.lastEndNs = end;
        node.totalNs += dur;
        if (!stack.empty())
            stack.back().node->childNs += dur;
    }

    /** Instructions the traced trace sources produced this run. */
    void addGenerated(std::uint64_t n) { runs.back().generated += n; }

    /**
     * One JSON object per node, parents before children:
     * {"run", "id", "parent", "name", "count", "total_ns",
     *  "child_ns", "start_ns", "end_ns"} (root lines add
     * "generated_instr" and "unclosed"). Ids are unique within the
     * file.
     */
    void writeJsonl(std::ostream &os) const;

  private:
    struct Frame
    {
        SpanNode *node;
        std::uint64_t startNs;
    };

    struct Run
    {
        std::size_t id;
        std::unique_ptr<SpanNode> root;
        std::uint64_t generated = 0;
        /** Spans still open when the run ended. */
        std::size_t unclosed = 0;
    };

    std::vector<Run> runs;
    std::vector<Frame> stack;
};

/** RAII span on a recorder. */
class Span
{
  public:
    Span(SpanRecorder &rec, const char *site) : recorder(rec)
    {
        recorder.enter(site);
    }
    ~Span() { recorder.exit(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder &recorder;
};

} // namespace perfbench

#endif // TLSIM_PERFBENCH_SPANS_HH
