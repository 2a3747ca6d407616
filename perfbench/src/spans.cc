#include "spans.hh"

namespace perfbench
{

void
SpanRecorder::writeJsonl(std::ostream &os) const
{
    std::uint64_t next_id = 0;
    for (const Run &run : runs) {
        // Depth-first, parents first; each frame carries the id its
        // children name as parent.
        struct Item
        {
            const SpanNode *node;
            std::int64_t parentId;
        };
        std::vector<Item> todo{{run.root.get(), -1}};
        while (!todo.empty()) {
            Item item = todo.back();
            todo.pop_back();
            std::uint64_t id = next_id++;
            const SpanNode &n = *item.node;
            os << "{\"run\": " << run.id << ", \"id\": " << id
               << ", \"parent\": " << item.parentId << ", \"name\": \""
               << n.name << "\", \"count\": " << n.count
               << ", \"total_ns\": " << n.totalNs
               << ", \"child_ns\": " << n.childNs
               << ", \"start_ns\": " << n.firstStartNs
               << ", \"end_ns\": " << n.lastEndNs;
            if (!item.node->parent)
                os << ", \"generated_instr\": " << run.generated
                   << ", \"unclosed\": " << run.unclosed;
            os << "}\n";
            for (auto it = n.children.rbegin(); it != n.children.rend();
                 ++it)
                todo.push_back({it->get(), static_cast<std::int64_t>(id)});
        }
    }
}

} // namespace perfbench
