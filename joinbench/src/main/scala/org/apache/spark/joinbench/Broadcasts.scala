package org.apache.spark.joinbench

import org.apache.spark.SparkEnv
import org.apache.spark.storage.BroadcastBlockId

/** Releases the broadcasts a Spark sample left behind.
  *
  * `SpatialJoin.joinWithIndex` broadcasts its index on every call and never
  * destroys the broadcast, so without this each sample would keep another
  * serialized copy of the index in the driver's block manager. The calls
  * used here are `private[spark]`, hence the package.
  */
object Broadcasts {

  /** Destroys every broadcast held by the local block manager; returns how
    * many there were.
    */
  def releaseAll(): Int = {
    val env = SparkEnv.get
    val ids = env.blockManager
      .getMatchingBlockIds(_.isBroadcast)
      .collect { case BroadcastBlockId(id, _) => id }
      .distinct
    ids.foreach(id => env.broadcastManager.unbroadcast(id, removeFromDriver = true, blocking = true))
    ids.size
  }
}
