#include "decorators.hh"

#include <memory>

#include "mem/l2registry.hh"
#include "mem/memregistry.hh"

namespace perfbench
{

namespace
{

using tlsim::Addr;
using tlsim::Tick;
using tlsim::mem::RespCallback;

constexpr const char *tracedPrefix = "traced:";

/** Wrap @p cb so its invocation is a span named @p site. */
RespCallback
spanned(SpanRecorder &rec, const char *site, RespCallback cb)
{
    if (!cb)
        return cb; // keep "no callback" visible to the callee
    return [&rec, site, cb = std::move(cb)](Tick when) {
        Span span(rec, site);
        cb(when);
    };
}

/**
 * An L2 design behind spans. The wrapper's own StatGroup has no
 * parent, so only the real design appears in the stats tree.
 */
class TracedL2 : public tlsim::mem::L2Cache
{
  public:
    TracedL2(std::unique_ptr<tlsim::mem::L2Cache> inner_,
             const tlsim::l2::BuildContext &ctx, SpanRecorder &rec)
        : L2Cache("traced_l2", ctx.eq, nullptr, ctx.dram),
          inner(std::move(inner_)), recorder(rec)
    {}

    using L2Cache::access;

    void
    access(const tlsim::mem::MemRequest &req, RespCallback cb) override
    {
        Span span(recorder, "l2.access");
        // The response runs the requester's (L1/core) code.
        inner->access(req, spanned(recorder, "l2.respond",
                                   std::move(cb)));
    }

    void
    accessFunctional(Addr block_addr,
                     tlsim::mem::AccessType type) override
    {
        Span span(recorder, "l2.func");
        inner->accessFunctional(block_addr, type);
    }

    int linkCount() const override { return inner->linkCount(); }
    std::string designName() const override
    {
        return inner->designName();
    }
    void syncStats() override { inner->syncStats(); }
    void beginMeasurement() override { inner->beginMeasurement(); }
    void dumpFaultDiagnostic() const override
    {
        inner->dumpFaultDiagnostic();
    }

  private:
    std::unique_ptr<tlsim::mem::L2Cache> inner;
    SpanRecorder &recorder;
};

/** A memory backend behind spans; outside the stats tree likewise. */
class TracedMem : public tlsim::mem::MemBackend
{
  public:
    TracedMem(std::unique_ptr<tlsim::mem::MemBackend> inner_,
              const tlsim::mem::MemBuildContext &ctx, SpanRecorder &rec)
        : MemBackend(ctx.eq, nullptr), inner(std::move(inner_)),
          recorder(rec)
    {}

    void
    read(Addr block_addr, Tick now, RespCallback cb) override
    {
        Span span(recorder, "mem.read");
        inner->read(block_addr, now,
                    spanned(recorder, "mem.complete", std::move(cb)));
    }

    void
    write(Addr block_addr, Tick now) override
    {
        Span span(recorder, "mem.write");
        inner->write(block_addr, now);
    }

    int inService() const override { return inner->inService(); }
    std::string backendName() const override
    {
        return inner->backendName();
    }

  private:
    std::unique_ptr<tlsim::mem::MemBackend> inner;
    SpanRecorder &recorder;
};

} // namespace

void
enableTracedMachines(SpanRecorder &rec)
{
    for (const std::string &name : tlsim::l2::Registry::names()) {
        tlsim::l2::Registry::registerDesign(
            tracedPrefix + name,
            [name, &rec](const tlsim::l2::BuildContext &ctx) {
                return std::make_unique<TracedL2>(
                    tlsim::l2::Registry::build(name, ctx), ctx, rec);
            });
    }
    for (const std::string &name : tlsim::mem::MemRegistry::names()) {
        tlsim::mem::MemRegistry::registerBackend(
            tracedPrefix + name,
            [name, &rec](const tlsim::mem::MemBuildContext &ctx) {
                return std::make_unique<TracedMem>(
                    tlsim::mem::MemRegistry::build(name, ctx), ctx,
                    rec);
            });
    }
}

tlsim::harness::SystemConfig
tracedConfig(const tlsim::harness::SystemConfig &config)
{
    tlsim::harness::SystemConfig traced = config;
    traced.design = tracedPrefix + config.design;
    traced.mem.backend = tracedPrefix + config.mem.backend;
    return traced;
}

} // namespace perfbench
