#include "engine/lane_engine.hpp"

#include "model/markov_model.hpp"

namespace spectre::engine {

LaneEngine::LaneEngine(const detect::CompiledQuery* cq, const event::EventStore* store,
                       std::uint32_t instances, std::size_t windows_per_step,
                       std::size_t batch_events, event::ResultSink sink, obs::Shard* obs)
    : windows_per_step_(windows_per_step) {
    if (instances == 0) {
        stepper_ = std::make_unique<sequential::SeqStepper>(cq, store, std::move(sink));
        return;
    }
    core::RuntimeConfig cfg;
    cfg.splitter.instances = static_cast<int>(instances);
    cfg.batch_events = cfg.quantum_budget = batch_events;
    runtime_ = std::make_unique<core::SpectreRuntime>(
        store, cq, cfg,
        std::make_unique<model::MarkovModel>(cq->min_length(), model::MarkovParams{}));
    runtime_->set_result_sink(std::move(sink));
    runtime_->bind_obs(obs);
}

LaneEngine::Step LaneEngine::step() {
    if (stepper_) {
        const bool more = stepper_->drain(windows_per_step_);
        if (stepper_->finished()) return Step::Done;
        return more ? Step::Busy : Step::Idle;
    }
    const auto p = runtime_->step();
    if (p.done) return Step::Done;
    return p.quiescent ? Step::Idle : Step::Busy;
}

event::Seq LaneEngine::processed() const {
    return stepper_ ? stepper_->processed() : runtime_->processed();
}

event::Seq LaneEngine::low_watermark() const {
    return stepper_ ? stepper_->low_watermark() : runtime_->low_watermark();
}

}  // namespace spectre::engine
