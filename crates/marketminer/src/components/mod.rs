//! The analytics components of Figure 1.

pub mod bar_accumulator;
pub mod collector;
pub mod correlation_engine;
pub mod order_gateway;
pub mod risk;
pub mod signal_node;
pub mod strategy_node;

pub use bar_accumulator::{BarAccumulatorNode, HealthPolicy};
pub use collector::{FaultedCollector, ReplayCollector};
pub use correlation_engine::CorrelationEngineNode;
pub use order_gateway::OrderGatewayNode;
pub use risk::RiskManagerNode;
pub use signal_node::SignalNode;
pub use strategy_node::StrategyHostNode;
